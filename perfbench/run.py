"""The repo benchmark: cold and warm paper runs, a wide design-space
sweep, and the results service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload traced and prints every per-layer metric.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any output fails its correctness check or a command the benchmark
runs fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, quote, urlsplit

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402

#: The paper workloads run ``all --smoke``: the CLI's own quick budget
#: (``repro.results.orchestrator.SMOKE_INSTRUCTIONS``), the one its CI
#: and README use for a whole-paper pass.  The default budget (150k)
#: takes too long for a cold and warm pair to repeat within a run.
PAPER_ARGS: Tuple[str, ...] = ("all", "--smoke")
#: The budget ``--smoke`` stands for; the serve fixture's budget too.
PAPER_INSTRUCTIONS = 20_000
#: Instruction budget of the explore-wide grid.
EXPLORE_INSTRUCTIONS = 60_000
#: Setup probes after each repetition of a CLI workload; setup_s is the
#: median of all of them.
SETUP_PROBES_PER_REPETITION = 3
#: Fresh servers per serve-mixed run; setup_s is their median.
SERVERS = 5
#: Warm reruns after each cold run; warm_s is the median of all of them.
WARM_RUNS = 2
#: Hard limit on any one child command.
COMMAND_TIMEOUT_S = 150.0
#: Interval of the process-tree RSS sampler.  Every sample walks /proc
#: for each process and thread of the tree; at 20 ms that walk slowed
#: the 2-process parallel cold run by 7-13% (three paired runs on a
#: 2-vCPU machine).
RSS_SAMPLE_S = 0.1

#: serve-mixed: at most this many connections in flight (the box's nproc).
CONNECTIONS = 2
#: serve-mixed: offered rate at which p50_ms/p99_ms are reported.
REFERENCE_RATE = 100.0
#: serve-mixed: share of ``--seconds`` spent at the reference rate.
REFERENCE_SHARE = 0.45
#: serve-mixed: the fixed capacity ladder (requests/s).
LADDER = tuple(round(300.0 * 1.1 ** step) for step in range(16))
#: serve-mixed: latency limit on p99 for a ladder step to pass.
P99_LIMIT_MS = 50.0
#: serve-mixed: share of requests that are cold misses (202 + enqueue).
MISS_SHARE = 0.02
#: serve-mixed: share of requests for the largest frames (whole ~117 KB
#: grid frames).  Fixed, so that p99 falls inside their latency
#: distribution instead of on the edge between two classes of request.
LARGE_SHARE = 0.1
#: serve-mixed: a frame whose stored rows take at least this many bytes
#: of JSON is large.
LARGE_FRAME_BYTES = 64 * 1024
#: Model-only experiments: their key ignores the budget, so a request
#: at a fresh budget is still a hit and cannot serve as a miss.
BUDGET_FREE = ("table2", "table3")
#: serve-mixed: length of one ladder step.
STEP_S = 1.0

WORKLOADS = ("paper-cold", "explore-wide", "serve-mixed", "paper-parallel")

#: End-to-end metrics of every workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics only a request-serving workload has: the CLI
#: workloads produce one batch of results, not requests at a rate.
SERVE_UNITS = {
    "p50_ms": "ms",
    "p99_ms": "ms",
    "capacity_rps": "1/s",
}

KERNELS = ("gshare", "tournament", "tage", "loop", "btb", "icache")

#: Span layers with no self-time metric of their own; their self time
#: is reported inside ``unattributed.s``, so that the self-time metrics
#: sum to ``wall.s``.
UNREPORTED_LAYERS = ("unattributed", "tracing.install", "tracing.digest", "serve.connection")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "api.import.s": "s",
        "api.session.s": "s",
        "workloads.build.calls": "count",
        "workloads.build.s": "s",
        "workloads.trace_cache.hit_ratio": "ratio",
        "trace.compile.s": "s",
        "trace.run.s": "s",
        "trace.run.ns_per_instr": "ns",
        "trace.decode.s": "s",
    }
    for kernel in KERNELS:
        units.update(
            {
                f"frontend.{kernel}.calls": "count",
                f"frontend.{kernel}.distinct": "count",
                f"frontend.{kernel}.events": "count",
                f"frontend.{kernel}.s": "s",
                f"frontend.{kernel}.ns_per_event": "ns",
            }
        )
    units.update(
        {
            "frontend.many.s": "s",
            "uarch.profile.s": "s",
            "uarch.cmp.s": "s",
            "power.s": "s",
            "explore.chunks.computed": "count",
            "explore.chunks.cached": "count",
            "explore.assemble.s": "s",
            "explore.pareto.s": "s",
            "results.load.calls": "count",
            "results.load.hit_ratio": "ratio",
            "results.load.s": "s",
            "results.frame_decode.s": "s",
            "results.frame_encode.s": "s",
            "results.store.calls": "count",
            "results.store.s": "s",
            "results.manifest.s": "s",
            "exec.items": "count",
            "exec.dispatch.s": "s",
            "exec.prime.s": "s",
            "exec.retries": "count",
            "exec.journal.records": "count",
            "exec.journal.s": "s",
            "exec.queue.enqueued": "count",
            "exec.queue.enqueue.s": "s",
            "serve.requests": "count",
            "serve.resolve.s": "s",
            "serve.handler.s": "s",
            "serve.encode.s": "s",
            "serve.wait_ms": "ms",
            "loadgen.late_ms": "ms",
            "tracing.overhead_s": "s",
            "unattributed.s": "s",
            "wall.s": "s",
        }
    )
    return units


# -- environment ------------------------------------------------------------


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed command)."""


class Context:
    """Paths, seed and time budget of one benchmark run."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        base = os.path.join(root, ".perfbench")
        self.work = os.path.join(base, "work", f"{workload}-{os.getpid()}")
        self.spans_dir = os.path.join(base, "spans")
        self.results_dir = os.path.join(base, "results")
        self._dirs = 0
        self.processes: List[subprocess.Popen] = []

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path

    def env(self, home: str) -> Dict[str, str]:
        """Child environment: the user's defaults, with caches under ``home``."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["HOME"] = home
        env["XDG_CACHE_HOME"] = os.path.join(home, "cache")
        env.pop("PYTHONUNBUFFERED", None)
        return env


def fingerprint() -> Dict[str, Any]:
    """Machine identity plus a fixed calibration loop (pure Python, NumPy)."""
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def python_loop() -> None:
        total = 0
        for value in range(1_000_000):
            total += value * value % 7

    data = np.random.default_rng(0).random(1_000_000)

    def numpy_loop() -> None:
        np.sort(data)
        np.cumsum(data * 3.0)

    def timed(function: Callable[[], None]) -> float:
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            function()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_python_s": timed(python_loop),
        "calibration_numpy_s": timed(numpy_loop),
    }


# -- child processes --------------------------------------------------------


def _tree_rss_kb(pid: int) -> int:
    """Resident set of ``pid`` and all its descendants, in KiB."""
    total, stack, seen = 0, [pid], set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            with open(f"/proc/{current}/status", encoding="utf-8") as stream:
                for line in stream:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="utf-8") as stream:
                    stack.extend(int(child) for child in stream.read().split())
        except (OSError, ValueError):
            continue
    return total


class Command:
    """A child process, timed from spawn, with its peak tree RSS sampled."""

    def __init__(self, ctx: Context, argv: Sequence[str], env: Dict[str, str], log: str):
        self.log_path = log
        self.lines: List[Tuple[float, str]] = []
        self.peak_kb = 0
        self.wall_s = 0.0
        self._log = open(log, "wb")
        self._more = threading.Condition()
        self._eof = False
        self._reaped = threading.Event()
        self._timed_out = False
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            list(argv),
            cwd=ctx.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        ctx.processes.append(self.process)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _read(self) -> None:
        assert self.process.stdout is not None
        for raw in self.process.stdout:
            with self._more:
                self.lines.append((time.perf_counter(), raw.decode("utf-8", "replace").rstrip("\n")))
                self._more.notify_all()
        with self._more:
            self._eof = True
            self._more.notify_all()

    def _sample(self) -> None:
        # A reaped pid has no /proc entry, so a last sample reads 0.
        while not self._reaped.wait(RSS_SAMPLE_S):
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.process.pid))

    def wait_line(self, predicate: Callable[[str], bool], timeout: float) -> Optional[float]:
        """Time (perf_counter) of the first stdout line matching ``predicate``;
        None if stdout closes or ``timeout`` passes first."""
        deadline = time.perf_counter() + timeout
        seen = 0
        with self._more:
            while True:
                for moment, line in self.lines[seen:]:
                    if predicate(line):
                        return moment
                seen = len(self.lines)
                left = deadline - time.perf_counter()
                if self._eof or left <= 0:
                    return None
                self._more.wait(left)

    def wait(self, timeout: float = COMMAND_TIMEOUT_S) -> float:
        """Reap the child; return wall seconds from spawn to exit."""
        if self.process.returncode is None:
            timer = threading.Timer(timeout, self._kill_group)
            timer.daemon = True
            timer.start()
            _, status, usage = os.wait4(self.process.pid, 0)
            ended = time.perf_counter()
            timer.cancel()
            self.process.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, int(usage.ru_maxrss))
            self.wall_s = ended - self.started
            if self._timed_out:
                self._finish()
                raise BenchError(f"command timed out: {self.process.args}")
        self._finish()
        return self.wall_s

    def _kill_group(self) -> None:
        self._timed_out = True
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _finish(self) -> None:
        self._reaped.set()
        self._reader.join(timeout=5)
        self._sampler.join(timeout=5)
        self._log.close()

    def kill(self) -> None:
        self._kill_group()
        if self.process.returncode is None:
            self.process.wait()
        self._finish()

    def stderr_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as stream:
                return stream.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""


def run_command(ctx: Context, argv: Sequence[str], env: Dict[str, str], label: str) -> Command:
    command = Command(ctx, argv, env, os.path.join(ctx.work, f"{label}-{time.monotonic_ns()}.log"))
    command.wait()
    if command.process.returncode != 0:
        raise BenchError(
            f"{label} exited {command.process.returncode}:\n{command.stderr_tail()}"
        )
    return command


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def child_argv(mode: str, *args: str, spans: Optional[str] = None, label: str = "") -> List[str]:
    prefix = ["--spans", spans, "--label", label] if spans else []
    return python_argv(os.path.join(HERE, "child.py"), *prefix, mode, *args)


# -- correctness gate -------------------------------------------------------


class Gate:
    """Counts attempted and failed operations; records why each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str, weight: int = 1) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.problems.append(problem)
        return ok


def load_golden() -> Dict[str, Any]:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as stream:
        return json.load(stream)


def output_digests(directory: str) -> Dict[str, str]:
    """SHA-256 of every CSV/JSON output (``manifest.json`` excluded: its
    ``status`` fields differ between cold and warm runs by design)."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        if name == "manifest.json" or not name.endswith((".csv", ".json")):
            continue
        with open(os.path.join(directory, name), "rb") as stream:
            digests[name] = hashlib.sha256(stream.read()).hexdigest()
    return digests


def compare_digests(gate: Gate, what: str, actual: Dict[str, str], expected: Dict[str, str]) -> None:
    """One operation per expected file: present and byte-identical."""
    for name, digest in sorted(expected.items()):
        gate.check(actual.get(name) == digest, f"{what}: {name} differs")
    extra = sorted(set(actual) - set(expected))
    for name in extra:
        gate.check(False, f"{what}: unexpected output {name}")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- CLI workloads: paper-cold, paper-parallel, explore-wide ---------------


def probe_setup(ctx: Context, parallel: bool, count: int) -> List[float]:
    """Interpreter start until CLI import + Session resolution is done."""
    samples = []
    flags = ["--parallel"] if parallel else []
    for _ in range(count):
        home = ctx.fresh_dir("setup")
        command = Command(ctx, child_argv("setup", *flags), ctx.env(home), os.path.join(home, "log"))
        ready = command.wait_line(lambda line: line == "READY", COMMAND_TIMEOUT_S)
        command.wait()
        if ready is None or command.process.returncode != 0:
            raise BenchError(f"setup probe failed:\n{command.stderr_tail()}")
        samples.append(ready - command.started)
    return samples


def paper_command(out: str, parallel: bool, spans: Optional[str] = None, label: str = "") -> List[str]:
    args = [*PAPER_ARGS, "--out", out]
    if parallel:
        args += ["--parallel", "--processes", "2"]
    if spans:
        return child_argv("cli", *args, spans=spans, label=label)
    return python_argv("-m", "repro.cli", *args)


class CliRun:
    """One cold run plus its warm reruns against the store it filled."""

    def __init__(self, home: str, cold: Command, warm: List[Command]):
        self.home = home
        self.cold = cold
        self.warm = warm


def run_paper_once(ctx: Context, gate: Gate, parallel: bool, golden: Dict[str, str],
                   spans: Optional[Tuple[str, str]] = None) -> CliRun:
    home = ctx.fresh_dir("paper")
    cold_out = os.path.join(home, "out-cold")
    traced = spans is not None
    cold = run_command(
        ctx,
        paper_command(cold_out, parallel, spans[0] if traced else None, "cold"),
        ctx.env(home),
        "cold",
    )
    cold_digests = output_digests(cold_out)
    compare_digests(gate, "cold all", cold_digests, golden)
    warm_runs = []
    for index in range(1 if traced else WARM_RUNS):
        warm_out = os.path.join(home, f"out-warm{index}")
        warm = run_command(
            ctx,
            paper_command(warm_out, parallel, spans[1] if traced else None, "warm"),
            ctx.env(home),
            "warm",
        )
        compare_digests(gate, "warm all vs cold", output_digests(warm_out), cold_digests)
        warm_runs.append(warm)
    streamed = sum(line.startswith("== ") for _, line in cold.lines)
    gate.check(streamed == len(golden) // 2, "cold all streamed too few results")
    return CliRun(home, cold, warm_runs)


def run_explore_once(ctx: Context, gate: Gate, golden: Dict[str, str],
                     spans: Optional[Tuple[str, str]] = None) -> CliRun:
    home = ctx.fresh_dir("explore")
    traced = spans is not None

    def explore(label: str, span_file: Optional[str]) -> Tuple[Command, Dict[str, Any], Dict[str, str]]:
        out = os.path.join(home, f"out-{label}")
        argv = child_argv(
            "explore", "--instructions", str(EXPLORE_INSTRUCTIONS), "--out", out,
            spans=span_file, label=label,
        )
        command = run_command(ctx, argv, ctx.env(home), label)
        summary = next(
            (json.loads(line[len("EXPLORE "):]) for _, line in command.lines if line.startswith("EXPLORE ")),
            None,
        )
        if summary is None:
            raise BenchError("explore child printed no summary")
        return command, summary, output_digests(out)

    cold, summary, cold_digests = explore("cold", spans[0] if traced else None)
    gate.check(summary["chunks_computed"] == summary["chunks_total"], "cold explore reused stored chunks", summary["chunks_total"])
    compare_digests(gate, "cold explore", cold_digests, golden)
    warm_runs = []
    for index in range(1 if traced else WARM_RUNS):
        warm, warm_summary, warm_digests = explore(f"warm{index}", spans[1] if traced else None)
        gate.check(warm_summary["chunks_computed"] == 0, "warm explore recomputed chunks", warm_summary["chunks_total"])
        compare_digests(gate, "warm explore vs cold", warm_digests, cold_digests)
        warm_runs.append(warm)
    return CliRun(home, cold, warm_runs)


def cli_metrics(setup: List[float], runs: List[CliRun]) -> Dict[str, float]:
    """Medians over the run's repetitions of each repetition's figures."""
    return {
        "setup_s": median(setup),
        "cold_s": median([run.cold.wall_s for run in runs]),
        "warm_s": median([warm.wall_s for run in runs for warm in run.warm]),
        "peak_rss_mb": median([run.cold.peak_kb / 1024 for run in runs]),
    }


def measure_cli(ctx: Context, parallel: bool, once: Callable[[], CliRun]) -> Dict[str, float]:
    """Repeat ``once`` while another repetition still fits in the budget.

    Setup probes run between repetitions, so every metric samples the
    machine across the whole run rather than one moment of it.
    """
    probe_setup(ctx, parallel, 1)  # warms the bytecode and page caches only
    runs: List[CliRun] = []
    setup: List[float] = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        runs.append(once())
        setup += probe_setup(ctx, parallel, SETUP_PROBES_PER_REPETITION)
        took = time.perf_counter() - before
        if time.perf_counter() - started + took > ctx.seconds:
            return cli_metrics(setup, runs)


def workload_paper(ctx: Context, gate: Gate, parallel: bool) -> Dict[str, float]:
    golden = load_golden()["paper"]["files"]
    if not ctx.trace:
        return measure_cli(ctx, parallel, lambda: run_paper_once(ctx, gate, parallel, golden))
    documents, overhead, traced = traced_cli(ctx, lambda spans: run_paper_once(ctx, gate, parallel, golden, spans))
    late_ms = 0.0
    if not parallel:
        # serve-mixed is not in BENCHMARK.json (too unsteady on a shared
        # 2-core box), so the serve layers are measured here, by serving
        # the store this run just filled.
        server, _, late_ms = traced_serve(ctx, gate, traced.home)
        documents.append(server)
    return layer_metrics(documents, overhead=overhead, late_ms=late_ms)


def workload_explore(ctx: Context, gate: Gate) -> Dict[str, float]:
    golden = load_golden()["explore"]["files"]
    if ctx.trace:
        documents, overhead, _ = traced_cli(ctx, lambda spans: run_explore_once(ctx, gate, golden, spans))
        return layer_metrics(documents, overhead=overhead, late_ms=0.0)
    return measure_cli(ctx, False, lambda: run_explore_once(ctx, gate, golden))


def traced_cli(ctx: Context, once: Callable[[Optional[Tuple[str, str]]], CliRun]
               ) -> Tuple[List[Dict[str, Any]], float, CliRun]:
    """One untraced and one traced cold+warm pair: the traced processes'
    span documents, the tracing overhead in seconds, and the traced run."""
    untraced = once(None)
    prefix = os.path.join(ctx.spans_dir, f"{ctx.workload}-seed{ctx.seed}")
    paths = (prefix + "-cold.json", prefix + "-warm.json")
    traced = once(paths)
    documents = [read_spans(path) for path in paths]
    return documents, traced.cold.wall_s - untraced.cold.wall_s, traced


def read_spans(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except (OSError, ValueError) as error:
        raise BenchError(f"no span file {path}: {error}")


def layer_metrics(documents: Sequence[Dict[str, Any]], overhead: float, late_ms: float) -> Dict[str, float]:
    """Per-layer metrics summed over the traced processes of one run."""
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    distinct: Dict[str, float] = {}
    trace_cache = {"hits": 0, "misses": 0}
    explore = {"chunks_computed": 0, "chunks_cached": 0}
    wall = 0.0
    for document in documents:
        wall += document["wall_s"]
        for source, target in ((document["self_s"], self_s), (document["counts"], counts), (document["distinct"], distinct)):
            for key, value in source.items():
                target[key] = target.get(key, 0.0) + value
        for key in trace_cache:
            trace_cache[key] += document.get("trace_cache", {}).get(key, 0)
        for key in explore:
            explore[key] += document.get("explore", {}).get(key, 0)

    def s(layer: str) -> float:
        return self_s.get(layer, 0.0)

    def n(name: str) -> float:
        return counts.get(name, 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    requests = n("serve.handler.calls")
    metrics = {
        "api.import.s": s("api.import"),
        "api.session.s": s("api.session"),
        "workloads.build.calls": n("workloads.build.calls"),
        "workloads.build.s": s("workloads.build"),
        "workloads.trace_cache.hit_ratio": ratio(trace_cache["hits"], trace_cache["hits"] + trace_cache["misses"]),
        "trace.compile.s": s("trace.compile"),
        "trace.run.s": s("trace.run"),
        "trace.run.ns_per_instr": ratio(s("trace.run") * 1e9, n("trace.run.instructions")),
        "trace.decode.s": s("trace.decode"),
    }
    for kernel in KERNELS:
        layer = f"frontend.{kernel}"
        metrics.update(
            {
                f"{layer}.calls": n(f"{layer}.calls"),
                f"{layer}.distinct": distinct.get(kernel, 0.0),
                f"{layer}.events": n(f"{layer}.events"),
                f"{layer}.s": s(layer),
                f"{layer}.ns_per_event": ratio(s(layer) * 1e9, n(f"{layer}.events")),
            }
        )
    metrics.update(
        {
            "frontend.many.s": s("frontend.many"),
            "uarch.profile.s": s("uarch.profile"),
            "uarch.cmp.s": s("uarch.cmp"),
            "power.s": s("power"),
            "explore.chunks.computed": explore["chunks_computed"],
            "explore.chunks.cached": explore["chunks_cached"],
            "explore.assemble.s": s("explore.assemble"),
            "explore.pareto.s": s("explore.pareto"),
            "results.load.calls": n("results.load.calls"),
            "results.load.hit_ratio": ratio(n("results.load.hits"), n("results.load.calls")),
            "results.load.s": s("results.load"),
            "results.frame_decode.s": s("results.frame_decode"),
            "results.frame_encode.s": s("results.frame_encode"),
            "results.store.calls": n("results.store.calls"),
            "results.store.s": s("results.store"),
            "results.manifest.s": s("results.manifest"),
            "exec.items": n("exec.items"),
            "exec.dispatch.s": s("exec.dispatch"),
            "exec.prime.s": s("exec.prime"),
            "exec.retries": n("exec.retries"),
            "exec.journal.records": n("exec.journal.calls"),
            "exec.journal.s": s("exec.journal"),
            "exec.queue.enqueued": n("exec.queue.enqueue.calls"),
            "exec.queue.enqueue.s": s("exec.queue.enqueue"),
            "serve.requests": requests,
            "serve.resolve.s": s("serve.resolve"),
            "serve.handler.s": s("serve.handler"),
            "serve.encode.s": s("serve.encode"),
            "serve.wait_ms": ratio(s("serve.connection") * 1e3, requests),
            "loadgen.late_ms": late_ms,
            "tracing.overhead_s": overhead,
            # Time no reported layer owns: code outside every wrapped
            # function, the tracer's own work (install, kernel-input
            # digests) and the service's connection I/O, which is
            # reported per request as serve.wait_ms.
            "unattributed.s": sum(s(layer) for layer in UNREPORTED_LAYERS),
            "wall.s": wall,
        }
    )
    return metrics


# -- serve-mixed -----------------------------------------------------------


class StoredFrames:
    """The fixture store's frames, read straight from its JSON entries."""

    def __init__(self, store_dir: str, experiments: Sequence[str]):
        self.entries: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for name in os.listdir(store_dir):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(store_dir, name), encoding="utf-8") as stream:
                entry = json.load(stream)
            artifact = entry.get("artifact", {})
            experiment = artifact.get("experiment")
            if experiment in experiments and artifact.get("frames"):
                self.entries[experiment] = (entry["key"], artifact)
        missing = sorted(set(experiments) - set(self.entries))
        if missing:
            raise BenchError(f"fixture store lacks {', '.join(missing)}")

    def expected(self, url: str) -> Tuple[str, List[str], List[List[Any]], str]:
        """(key, columns, rows, format) the service must answer for ``url``."""
        parts = urlsplit(url)
        segments = [s for s in parts.path.split("/") if s]
        params = parse_qs(parts.query, keep_blank_values=True)
        experiment = segments[1] if segments[0] == "experiment" else f"explore-{segments[1]}"
        key, artifact = self.entries[experiment]
        frame_name = params.get("frame", [artifact["primary"]])[0]
        frame = artifact["frames"][frame_name]
        columns, rows = list(frame["columns"]), [list(row) for row in frame["rows"]]
        for raw in params.get("where", []):
            column, _, value = raw.partition(":")
            position = columns.index(column)
            rows = [row for row in rows if str(row[position]) == value]
        if "columns" in params:
            chosen = params["columns"][0].split(",")
            positions = [columns.index(name) for name in chosen]
            columns, rows = chosen, [[row[p] for p in positions] for row in rows]
        return key, columns, rows, params.get("format", ["json"])[0]

    def body_bytes(self, url: str) -> int:
        """Size of the rows ``url`` asks for, as compact JSON."""
        _, columns, rows, _ = self.expected(url)
        return len(json.dumps([columns, rows], separators=(",", ":")))


def request_catalogue(frames: StoredFrames, rng: random.Random) -> List[str]:
    """Every warm URL variant the mix draws from: experiment x frame x
    format x slicing, including the largest (~117 KB) frames."""
    urls = []
    for experiment in sorted(frames.entries):
        _, artifact = frames.entries[experiment]
        route = (
            f"/explore/{experiment[len('explore-'):]}"
            if experiment.startswith("explore-")
            else f"/experiment/{experiment}"
        )
        for frame_name in sorted(artifact["frames"]):
            frame = artifact["frames"][frame_name]
            columns, rows = frame["columns"], frame["rows"]
            frame_param = "" if frame_name == artifact["primary"] else f"frame={frame_name}&"
            slices = [""]
            if len(columns) > 1:
                chosen = ",".join(rng.sample(columns, 2))
                slices.append("columns=" + quote(chosen, safe=",") + "&")
            if rows:
                row = rng.choice(rows)
                position = rng.randrange(len(columns))
                value = row[position]
                if isinstance(value, (str, int)) and not isinstance(value, bool):
                    slices.append("where=" + quote(f"{columns[position]}:{value}", safe=":") + "&")
            for sliced in slices:
                for fmt in ("json", "csv"):
                    urls.append(f"{route}?{frame_param}{sliced}format={fmt}")
    return urls


def check_body(frames: StoredFrames, url: str, body: bytes) -> bool:
    """Decode one response body and compare it with the stored frame."""
    key, columns, rows, fmt = frames.expected(url)
    try:
        if fmt == "csv":
            parsed = list(csv.reader(io.StringIO(body.decode("utf-8"), newline="")))
            expected = [columns] + [["" if cell is None else str(cell) for cell in row] for row in rows]
            return parsed == expected
        document = json.loads(body)
    except (UnicodeDecodeError, ValueError):
        return False
    return document.get("key") == key and document.get("columns") == columns and document.get("rows") == rows


def mixed_urls(catalogue: Sequence[str], large: Sequence[str], count: int,
               rng: random.Random, used_budgets: set) -> List[str]:
    """A seeded request mix: large and other warm GETs in fixed shares,
    plus a few misses at fresh budgets."""
    urls = []
    small = [url for url in catalogue if url not in large]
    experiments = sorted(
        {url.split("?")[0] for url in catalogue if url.startswith("/experiment/")}
        - {f"/experiment/{name}" for name in BUDGET_FREE}
    )
    for _ in range(count):
        draw = rng.random()
        if draw < MISS_SHARE:
            budget = rng.randrange(5_000, 5_000_000)
            while budget in used_budgets or budget == PAPER_INSTRUCTIONS:
                budget = rng.randrange(5_000, 5_000_000)
            used_budgets.add(budget)
            urls.append(f"{rng.choice(experiments)}?instructions={budget}")
        elif draw < MISS_SHARE + LARGE_SHARE:
            urls.append(rng.choice(large))
        else:
            urls.append(rng.choice(small))
    return urls


class Server:
    """``repro-frontend serve`` as a subprocess, ready once /healthz answers."""

    def __init__(self, ctx: Context, home: str, queue_dir: str, spans: Optional[str] = None):
        args = ["serve", "--port", "0", "--queue-dir", queue_dir, "--instructions", str(PAPER_INSTRUCTIONS)]
        argv = child_argv("cli", *args, spans=spans, label="serve") if spans else python_argv("-m", "repro.cli", *args)
        self.command = Command(ctx, argv, ctx.env(home), os.path.join(ctx.work, f"serve-{time.monotonic_ns()}.log"))
        self.host, self.port = "127.0.0.1", None
        deadline = time.perf_counter() + 60
        while self.port is None and time.perf_counter() < deadline:
            for line in self.command.stderr_tail().splitlines():
                if line.startswith("serving results on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
            if self.command.process.poll() is not None:
                break
            time.sleep(0.002)
        if self.port is None:
            self.command.kill()
            raise BenchError(f"serve did not start:\n{self.command.stderr_tail()}")
        while time.perf_counter() < deadline:
            try:
                status, _ = loadgen.fetch(self.host, self.port, "/healthz", timeout=2)
            except (OSError, asyncio.TimeoutError):
                status = 0
            if status == 200:
                self.ready_s = time.perf_counter() - self.command.started
                return
            time.sleep(0.002)
        self.command.kill()
        raise BenchError("serve never answered /healthz")

    def stop(self) -> float:
        """SIGINT (the service's clean shutdown); return peak RSS in MB."""
        self.command.process.send_signal(signal.SIGINT)
        try:
            self.command.wait(timeout=10)
        except BenchError:
            pass
        return self.command.peak_kb / 1024


def check_step(gate: Gate, step: loadgen.StepResult, digests: Dict[str, str]) -> None:
    """Every response: 202 for a miss, else 200 and the verified body."""
    for response in step.responses:
        if "instructions=" in response.url:
            gate.check(response.status == 202, f"miss {response.url} answered {response.status}")
        else:
            gate.check(
                response.status == 200 and digests.get(response.url) == response.digest,
                f"{response.url or 'abandoned request'} answered {response.status} with a wrong body",
            )


class ServeMix:
    """The serve-mixed request mix over one filled store, plus its checks."""

    def __init__(self, ctx: Context, gate: Gate, home: str):
        golden = load_golden()["paper"]["files"]
        experiments = [name[: -len(".json")] for name in golden if name.endswith(".json")]
        self.ctx, self.gate, self.home = ctx, gate, home
        self.queue_dir = os.path.join(home, "queue")
        self.frames = StoredFrames(os.path.join(home, "cache", "repro-frontend", "results"), experiments)
        self.catalogue = request_catalogue(self.frames, ctx.rng)
        self.large = [url for url in self.catalogue if self.frames.body_bytes(url) >= LARGE_FRAME_BYTES]
        if not self.large:
            raise BenchError("the store holds no large frame")
        self.used_budgets: set = set()
        self.digests: Dict[str, str] = {}
        # Client and servers share one core (children inherit the
        # affinity), so a request's hand-offs never wait on a wake-up
        # across cores; this roughly halves the run-to-run spread.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def server(self, spans: Optional[str] = None) -> "Server":
        return Server(self.ctx, self.home, self.queue_dir, spans)

    def step(self, server: "Server", rate: float, seconds: float) -> Dict[str, float]:
        """One open-loop step at ``rate``; every response is checked."""
        count = int(rate * seconds * 2) + 10
        urls = mixed_urls(self.catalogue, self.large, count, self.ctx.rng, self.used_budgets)
        result = loadgen.run_step(server.host, server.port, urls, rate, seconds, self.ctx.rng, CONNECTIONS)
        check_step(self.gate, result, self.digests)
        return loadgen.summarize(result)

    def catalogue_pass(self, server: "Server") -> float:
        """Fetch every catalogue URL once, in sequence; return the wall time.

        The first pass decodes each body and compares it with the stored
        frame; every later response must repeat the verified bytes.
        """
        started = time.perf_counter()
        answers = loadgen.fetch_all(server.host, server.port, self.catalogue)
        took = time.perf_counter() - started
        for url, (status, body) in zip(self.catalogue, answers):
            if url not in self.digests:
                ok = status == 200 and check_body(self.frames, url, body)
                self.digests[url] = loadgen.body_digest(body) if ok else "mismatch"
            self.gate.check(
                status == 200 and self.digests[url] == loadgen.body_digest(body),
                f"{url} answered {status} with a wrong body",
            )
        return took


def traced_serve(ctx: Context, gate: Gate, home: str) -> Tuple[Dict[str, Any], float, float]:
    """The service over the store filled in ``home``: an untraced then a
    traced server, each at the reference rate.  Returns the traced
    server's span document, the tracing overhead (traced minus untraced
    p50, in seconds) and how late the generator ran (p99, ms)."""
    mix = ServeMix(ctx, gate, home)
    server = mix.server()
    mix.catalogue_pass(server)
    plain = mix.step(server, REFERENCE_RATE, 5.0)
    server.stop()
    spans = os.path.join(ctx.spans_dir, f"{ctx.workload}-seed{ctx.seed}-serve.json")
    server = mix.server(spans)
    mix.catalogue_pass(server)
    traced = mix.step(server, REFERENCE_RATE, 5.0)
    server.stop()
    overhead = (traced["p50_ms"] - plain["p50_ms"]) / 1e3
    return read_spans(spans), overhead, traced["late_p99_ms"]


def workload_serve(ctx: Context, gate: Gate) -> Dict[str, float]:
    home = ctx.fresh_dir("serve")
    fixture_out = os.path.join(home, "fixture-out")
    run_command(ctx, paper_command(fixture_out, parallel=False), ctx.env(home), "fixture")
    compare_digests(gate, "fixture all", output_digests(fixture_out), load_golden()["paper"]["files"])
    if ctx.trace:
        document, overhead, late_ms = traced_serve(ctx, gate, home)
        return layer_metrics([document], overhead=overhead, late_ms=late_ms)
    mix = ServeMix(ctx, gate, home)

    # Each fresh server gives one setup sample, one cold pass (its
    # in-process store is empty) and two warm passes; the last one stays
    # up for the load.
    setup, cold, warm = [], [], []
    for index in range(SERVERS):
        server = mix.server()
        setup.append(server.ready_s)
        cold.append(mix.catalogue_pass(server))
        warm += [mix.catalogue_pass(server), mix.catalogue_pass(server)]
        if index < SERVERS - 1:
            server.stop()
    reference = mix.step(server, REFERENCE_RATE, ctx.seconds * REFERENCE_SHARE)
    print(f"reference {json.dumps(reference)}", file=sys.stderr)

    def keeps_up(rate: float) -> Optional[float]:
        """The achieved rate if the service kept up at ``rate``."""
        summary = mix.step(server, rate, STEP_S)
        print(f"ladder {json.dumps(summary)}", file=sys.stderr)
        # A backlog the latency limit could absorb is not "growing".
        allowed_backlog = rate * P99_LIMIT_MS / 1e3 + CONNECTIONS
        if summary["backlog_at_end"] <= allowed_backlog and summary["p99_ms"] <= P99_LIMIT_MS:
            return summary["achieved_rps"]
        return None

    # Climb the ladder until a rung misses.  A rung that misses runs once
    # more before it counts, so one transient stall of the shared machine
    # does not end the climb.
    capacity = 0.0
    for rate in LADDER:
        achieved = keeps_up(rate) or keeps_up(rate)
        if achieved is None:
            break
        capacity = achieved
    peak = server.stop()
    gate.check(capacity > 0, "service misses the latency limit at the lowest ladder rate")
    return {
        "setup_s": median(setup),
        "cold_s": median(cold),
        "warm_s": median(warm),
        "peak_rss_mb": peak,
        "p50_ms": reference["p50_ms"],
        "p99_ms": reference["p99_ms"],
        "capacity_rps": capacity,
    }


# -- entry point -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the root of a repro-frontend checkout (no src/repro here)", file=sys.stderr)
        return 2
    # Children inherit an ignored SIGINT (as under ``cmd &``), and the
    # service stops cleanly only on SIGINT: give them the default back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    ctx = Context(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for directory in (ctx.work, ctx.spans_dir, ctx.results_dir):
        os.makedirs(directory, exist_ok=True)
    machine = fingerprint()
    print("machine " + json.dumps(machine, sort_keys=True))
    gate = Gate()
    runners = {
        "paper-cold": lambda: workload_paper(ctx, gate, parallel=False),
        "paper-parallel": lambda: workload_paper(ctx, gate, parallel=True),
        "explore-wide": lambda: workload_explore(ctx, gate),
        "serve-mixed": lambda: workload_serve(ctx, gate),
    }
    values: Optional[Dict[str, float]] = None
    try:
        values = runners[args.workload]()
    except BenchError as error:
        # A command that exits non-zero (an experiment raised, an explore
        # chunk failed) or times out is one failed operation; the run
        # measured nothing, so it reports no metrics.
        gate.check(False, f"{args.workload} failed: {error}")
    finally:
        # Each child leads its own process group: killing the group also
        # stops any worker it left behind.
        for process in ctx.processes:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            if process.returncode is None:
                process.wait()
        shutil.rmtree(ctx.work, ignore_errors=True)

    if ctx.trace:
        units = per_layer_units()
    elif args.workload == "serve-mixed":
        units = {**END_TO_END_UNITS, **SERVE_UNITS}
    else:
        units = END_TO_END_UNITS
    metrics = {} if values is None else {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    failed_ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"{args.workload} failed_ratio = {failed_ratio:.6g} ({gate.failed} of {gate.attempted})")
    for problem in gate.problems[:20]:
        print(f"correctness: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    with open(os.path.join(ctx.results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)
    correct = gate.failed == 0 and gate.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

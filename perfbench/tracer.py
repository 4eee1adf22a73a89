"""In-memory span recorder that instruments ``repro`` from the outside.

The benchmark never edits the program: :func:`install` replaces chosen
public functions and methods of ``repro.*`` modules with wrappers that
record a span (name, start, end, parent) around each call, plus a few
counts taken at the same boundary (work items, input events, distinct
kernel inputs).  Spans stay in memory and are written once, when the
traced process ends (:meth:`Tracer.dump`).

:func:`self_times` turns a span list into per-layer self time plus an
``unattributed`` remainder that sums exactly to the process wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import heapq
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: (layer, "module:Qualified.name") pairs the tracer wraps.  A layer may
#: own several targets; nested calls of one layer are fine, because self
#: time never counts a nanosecond twice.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("api.session", "repro.api.session:Session.__init__"),
    ("workloads.build", "repro.workloads.synthesis:build_workload"),
    ("trace.compile", "repro.trace.compiler:compile_schedule"),
    ("trace.run", "repro.trace.compiler:CompiledSchedule.run"),
    ("trace.decode", "repro.frontend.simulation:_SectionStreams.__init__"),
    ("trace.decode", "repro.frontend.simulation:_SectionStreams._btb_stream"),
    ("trace.decode", "repro.frontend.simulation:_SectionStreams._line_stream"),
    ("frontend.gshare", "repro.frontend.predictors.gshare:GsharePredictor.simulate_sequence"),
    ("frontend.tournament", "repro.frontend.predictors.tournament:TournamentPredictor.simulate_sequence"),
    ("frontend.tage", "repro.frontend.predictors.tage:TagePredictor.simulate_sequence"),
    ("frontend.loop", "repro.frontend.predictors.loop:LoopPredictor.simulate_overrides"),
    ("frontend.btb", "repro.frontend.btb:BranchTargetBuffer.access_sequence"),
    ("frontend.icache", "repro.frontend.icache:InstructionCache.fetch_ranges"),
    ("frontend.many", "repro.frontend.simulation:simulate_frontend_many"),
    ("uarch.profile", "repro.uarch.simulator:profile_workload_frontend"),
    ("uarch.cmp", "repro.uarch.simulator:run_on_cmp"),
    ("power", "repro.power.core_power:frontend_area_power"),
    ("power", "repro.power.core_power:core_area_power"),
    ("power", "repro.power.cmp_power:cmp_area_mm2"),
    ("power", "repro.power.cmp_power:evaluate_cmp_energy"),
    ("explore.assemble", "repro.explore.plan:ExplorePlan._assemble"),
    ("explore.pareto", "repro.explore.pareto:ParetoFrontier.from_frame"),
    ("results.load", "repro.results.store:load_result"),
    ("results.store", "repro.results.store:store_result"),
    ("results.store", "repro.results.store:store_result_cas"),
    ("results.manifest", "repro.results.orchestrator:write_manifest"),
    ("results.frame_decode", "repro.api.frame:ResultFrame.from_payload"),
    ("results.frame_encode", "repro.api.frame:ResultFrame.to_payload"),
    ("results.frame_encode", "repro.api.frame:ResultFrame.to_csv"),
    ("results.frame_encode", "repro.api.frame:ResultFrame.to_json"),
    ("exec.dispatch", "repro.exec.executors:execute_items"),
    ("exec.prime", "repro.api.session:_prime_shared_traces"),
    ("exec.journal", "repro.exec.journal:SweepJournal.record"),
    ("exec.queue.enqueue", "repro.exec.queue:enqueue_item"),
    ("serve.connection", "repro.serve.server:ResultsServer._handle_connection"),
    ("serve.handler", "repro.serve.server:ResultsServer._dispatch"),
    ("serve.resolve", "repro.serve.resolve:resolve_experiment"),
    ("serve.encode", "repro.serve.wire:frame_body"),
)

#: The six simulator kernels whose inputs are digested to count
#: distinct (input stream, geometry) pairs.
KERNELS = ("gshare", "tournament", "tage", "loop", "btb", "icache")

#: Layer of the digest work the tracer itself adds inside kernel calls.
DIGEST_LAYER = "tracing.digest"

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Tuple[str, float, float, Optional[int], int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.kernel_inputs: Dict[str, set] = defaultdict(set)
        self._next_id = 0

    # -- recording ---------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self.origin

    def open(self, name: str) -> Tuple[int, Optional[int], float, contextvars.Token]:
        span_id = self._next_id
        self._next_id += 1
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        return span_id, parent, self.now(), token

    def close(self, name: str, handle: Tuple[int, Optional[int], float, contextvars.Token]) -> None:
        span_id, parent, start, token = handle
        end = self.now()
        _CURRENT.reset(token)
        self.spans.append((name, start, end, parent, span_id))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the benchmark's own calls."""
        handle = self.open(name)
        try:
            yield
        finally:
            self.close(name, handle)

    # -- output ------------------------------------------------------

    def dump(self, path: str, label: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span, count and the self-time breakdown as JSON."""
        wall = self.now()
        document = {
            "label": label,
            "wall_s": wall,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "id": i}
                for n, s, e, p, i in self.spans
            ],
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.kernel_inputs.items()},
            "self_s": self_times(self.spans, wall),
        }
        if extra:
            document.update(extra)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream)


def self_times(spans: Iterable[Sequence[Any]], wall: float) -> Dict[str, float]:
    """Per-layer self time plus ``unattributed``; the values sum to ``wall``.

    Every instant of ``[0, wall]`` is charged to exactly one layer: the
    innermost active span, taken as the active span that started last
    (for properly nested spans this is the usual "duration minus the
    part covered by children"; for spans of concurrent asyncio tasks it
    charges the overlap to the most recent one instead of twice).
    Instants no span covers are ``unattributed``.
    """
    spans = [(str(s[0]), float(s[1]), float(s[2]), index) for index, s in enumerate(spans)]
    events = []
    for name, start, end, index in spans:
        start = min(max(start, 0.0), wall)
        end = min(max(end, start), wall)
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    totals: Dict[str, float] = defaultdict(float)
    active: List[Tuple[float, int, int]] = []
    ended = set()
    previous = 0.0
    for moment, kind, index in events:
        if moment > previous:
            while active and active[0][2] in ended:
                heapq.heappop(active)
            owner = spans[active[0][2]][0] if active else "unattributed"
            totals[owner] += moment - previous
            previous = moment
        if kind == 1:
            heapq.heappush(active, (-spans[index][1], -index, index))
        else:
            ended.add(index)
    totals["unattributed"] += wall - previous
    return dict(totals)


# -- instrumentation -------------------------------------------------------


def _digest(*arrays: Any) -> str:
    import numpy as np

    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(array.view(np.uint8).reshape(-1))
    return digest.hexdigest()


def _geometry(kernel: str, owner: Any) -> Tuple[Any, ...]:
    if kernel == "btb":
        return (owner.entries, owner.associativity)
    if kernel == "icache":
        return (owner.size_bytes, owner.line_bytes, owner.associativity)
    return (type(owner).__name__, getattr(owner, "name", ""), owner.storage_bits())


def _wrap(tracer: Tracer, layer: str, function: Callable) -> Callable:
    """A span-recording stand-in for ``function`` (sync or async)."""
    kernel = layer.split(".", 1)[1] if layer.startswith("frontend.") else None
    if kernel not in KERNELS:
        kernel = None

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            tracer.counts[layer + ".calls"] += 1
            handle = tracer.open(layer)
            try:
                return await function(*args, **kwargs)
            finally:
                tracer.close(layer, handle)

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        tracer.counts[layer + ".calls"] += 1
        if kernel is not None:
            owner, streams = args[0], args[1:3]
            with tracer.span(DIGEST_LAYER):
                tracer.kernel_inputs[kernel].add(
                    (_digest(*streams), _geometry(kernel, owner))
                )
            before = getattr(owner, "accesses", 0)
        handle = tracer.open(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(layer, handle)
        if kernel == "icache":
            tracer.counts[layer + ".events"] += owner.accesses - before
        elif kernel is not None:
            tracer.counts[layer + ".events"] += len(args[1])
        elif layer == "trace.run":
            tracer.counts["trace.run.instructions"] += int(args[1])
        elif layer == "exec.dispatch":
            tracer.counts["exec.items"] += len(args[1])
            tracer.counts["exec.retries"] += sum(
                max(item.attempts - 1, 0) for item in result.items
            )
        elif layer == "results.load" and result is not None:
            tracer.counts["results.load.hits"] += 1
        return result

    for attribute in ("cache_clear", "cache_info"):
        if hasattr(function, attribute):
            setattr(traced, attribute, getattr(function, attribute))
    return traced


def install(tracer: Tracer, targets: Sequence[Tuple[str, str]] = TARGETS) -> None:
    """Wrap every target, rebinding names other modules imported early."""
    replaced: Dict[int, Callable] = {}
    for layer, target in targets:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        *owner_path, name = qualname.split(".")
        owner: Any = module
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_wrap(tracer, layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(tracer, layer, raw.__func__))
        elif isinstance(raw, functools.cached_property):
            wrapped = functools.cached_property(_wrap(tracer, layer, raw.func))
            wrapped.__set_name__(owner, name)
        else:
            wrapped = _wrap(tracer, layer, raw)
            replaced[id(raw)] = wrapped
        setattr(owner, name, wrapped)
    # ``from module import function`` bindings made before installation
    # still point at the originals: rebind them in every loaded module.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if id(value) in replaced and callable(value):
                setattr(module, attribute, replaced[id(value)])

"""Child-process entry of the benchmark: one fresh interpreter per run.

    python perfbench/child.py [--spans FILE --label NAME] setup [--parallel]
    python perfbench/child.py [--spans FILE --label NAME] cli ARGS...
    python perfbench/child.py [--spans FILE --label NAME] explore --instructions N --out DIR

``setup`` imports the CLI and resolves a Session the way
``repro-frontend all`` does, prints ``READY`` and exits: the parent
times interpreter start until that line.  ``cli`` runs
``repro.cli.main(ARGS)``.  ``explore`` runs the benchmark's own
front-end grid through ``Session.explore`` and writes the grid and
Pareto frames as CSV into DIR.

With ``--spans`` the process is traced (:mod:`tracer`) and its spans
are written to FILE when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ENTRY = time.perf_counter()

#: Summary of an ``explore`` run, kept for the span file.
_EXPLORE_SUMMARY = None

#: The explore-wide grid: every predictor kind and budget, with and
#: without the loop predictor, against BTB sizes x associativities and
#: I-cache sizes x line sizes x associativities (1,728 points).
EXPLORE_AXES = {
    "predictor_kind": ("gshare", "tournament", "tage"),
    "predictor_budget": ("small", "big"),
    "predictor_loop": (False, True),
    "btb_entries": (512, 2048, 8192),
    "btb_associativity": (2, 8),
    "icache_kb": (8, 16, 32, 64),
    "icache_line_bytes": (32, 64, 128),
    "icache_associativity": (2, 8),
}

#: One HPC and one desktop workload: few streams, many geometries.
EXPLORE_WORKLOADS = ("CoMD", "gobmk")


def _setup(parallel: bool) -> int:
    from repro.api.session import Session
    from repro.results.store import enable_shared_result_store

    enable_shared_result_store()
    overrides = {"parallel": True, "processes": 2} if parallel else {}
    Session(**overrides)
    print("READY", flush=True)
    return 0


def _explore(instructions: int, out: str) -> int:
    """Run the benchmark grid; print a summary of its chunks."""
    global _EXPLORE_SUMMARY
    from repro.api.session import Session
    from repro.explore.grid import GridSpec
    from repro.results.store import enable_shared_result_store

    enable_shared_result_store()
    session = Session(instructions=instructions)
    grid = GridSpec.frontend(name="perfbench-wide", **EXPLORE_AXES)
    result = session.explore(grid, workloads=EXPLORE_WORKLOADS).result()
    os.makedirs(out, exist_ok=True)
    for name in ("grid", "pareto"):
        result.frames[name].to_csv(os.path.join(out, f"explore-{name}.csv"))
    summary = {
        "points": result.points,
        "chunks_total": result.chunks_total,
        "chunks_computed": result.chunks_computed,
        "chunks_cached": result.chunks_cached,
    }
    print("EXPLORE " + json.dumps(summary), flush=True)
    _EXPLORE_SUMMARY = summary
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--label", default="process")
    parser.add_argument("mode", choices=("setup", "cli", "explore"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer()
        tracer.origin = _ENTRY
        with tracer.span("api.import"):
            import repro.cli  # noqa: F401
        with tracer.span("tracing.install"):
            install(tracer)
    try:
        if args.mode == "setup":
            if tracer is None:
                import repro.cli  # noqa: F401
            return _setup("--parallel" in args.rest)
        if args.mode == "cli":
            from repro.cli import main as cli_main

            return cli_main(args.rest)
        sub = argparse.ArgumentParser(prog="perfbench-child explore")
        sub.add_argument("--instructions", type=int, required=True)
        sub.add_argument("--out", required=True)
        options = sub.parse_args(args.rest)
        return _explore(options.instructions, options.out)
    finally:
        if tracer is not None:
            _dump(tracer, args.spans, args.label)


def _dump(tracer, path: str, label: str) -> None:
    from repro.workloads.trace_cache import trace_cache_info

    extra = {"trace_cache": trace_cache_info()}
    if _EXPLORE_SUMMARY is not None:
        extra["explore"] = _EXPLORE_SUMMARY
    tracer.dump(path, label, extra)


if __name__ == "__main__":
    sys.exit(main())

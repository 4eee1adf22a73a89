"""Record the correctness gate's reference digests into ``golden.json``.

    python3 perfbench/record_golden.py

Runs ``repro-frontend all`` at the paper budget and the explore-wide
grid at its budget, each from empty caches, and stores the SHA-256 of
every CSV/JSON output.  The model is not validated against hardware,
so the gate checks equality with the outputs recorded here, not an
error figure.  Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    root = os.getcwd()
    ctx = run.Context(root, "golden", 0, 0.0, False)
    os.makedirs(ctx.work, exist_ok=True)
    try:
        home = ctx.fresh_dir("paper")
        out = os.path.join(home, "out")
        run.run_command(ctx, run.paper_command(out, parallel=False), ctx.env(home), "paper")
        paper = run.output_digests(out)
        home = ctx.fresh_dir("explore")
        out = os.path.join(home, "out")
        argv = run.child_argv(
            "explore", "--instructions", str(run.EXPLORE_INSTRUCTIONS), "--out", out
        )
        run.run_command(ctx, argv, ctx.env(home), "explore")
        explore = run.output_digests(out)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    golden = {
        "paper": {"instructions": run.PAPER_INSTRUCTIONS, "files": paper},
        "explore": {"instructions": run.EXPLORE_INSTRUCTIONS, "files": explore},
    }
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as stream:
        json.dump(golden, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"recorded {len(paper)} paper and {len(explore)} explore digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the figure goldens the benchmark checks against.

Usage, from the root of a checkout of the commit the goldens pin::

    python3 perfbench/make_golden.py [WORKLOAD ...]

Each golden holds the rows and per-cell machine records of one untraced
iteration, produced exactly as a benchmark iteration (fresh process,
``PYTHONHASHSEED=0``, empty calibration cache).  Regenerating a golden
accepts whatever the current code computes, so do it only on the commit
whose results are known good.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import FIGURE_WORKLOADS


def main(argv: "list[str]") -> int:
    os.chdir(run.ROOT)
    work = run.BENCH / "_work" / f"golden-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run.GOLDEN.mkdir(exist_ok=True)
    try:
        for workload in argv or FIGURE_WORKLOADS:
            data = run.figure_iteration(workload, "run", work)
            path = run.GOLDEN / f"{workload}.json"
            path.write_text(json.dumps({"records": data["records"]}, indent=1) + "\n")
            print(f"wrote {path} ({data['wall_s']:.1f}s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

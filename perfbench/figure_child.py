"""One iteration of a figure workload, in a fresh process.

Usage (spawned by ``run.py`` from the checkout root, with
``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and an empty ``REPRO_CACHE_DIR``)::

    python perfbench/figure_child.py WORKLOAD OUT.json MODE

``MODE`` is ``run`` (untraced), ``trace`` (layer wrappers installed
before the first machine is built) or ``setup`` (stop once ready).  The
child stamps ``ready`` after its imports with ``time.monotonic()``, the
system-wide clock the parent stamped the spawn with, runs the workload's
experiments exactly as ``python -m repro`` does (rows plus per-cell
machine records), stamps ``done`` and writes everything to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: "list[str]") -> int:
    workload, out_path, mode = argv
    from repro.cache import configure_from_env
    from repro.eval import parallel, records

    import tracer as tr
    from workloads import SCALE, figure_runs

    configure_from_env(default_disk=True)
    runs = figure_runs(workload)
    tracer = None
    if mode == "trace":
        tracer = tr.Tracer()
        tr.install(tracer)

    # Every cell (one implementation over one dataset) is requested when
    # the workload starts, and all cells funnel through ``_execute_unit``:
    # a cell's latency runs from ``ready`` until its result exists.
    cell_done: "list[float]" = []
    alignments = 0
    execute_unit = parallel._execute_unit

    def timed_unit(unit):
        nonlocal alignments
        result = execute_unit(unit)
        cell_done.append(time.monotonic())
        alignments += len(unit.pairs)
        return result

    parallel._execute_unit = timed_unit
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if mode != "setup":
        if tracer is not None:
            baseline = tr.meter_snapshot()
            root = tracer.enter("unattributed")
        emitted = {}
        for name, title, fn, kwargs in runs:
            with records.capture() as captured:
                rows = fn(**kwargs)
            emitted[name] = records.experiment_record(
                name, title, rows, scale=SCALE, jobs=1,
                machines=captured.machine_records(),
            )
        out["done"] = time.monotonic()
        out.update(
            records=emitted, alignments=alignments,
            cell_ms=[(done - ready) * 1e3 for done in cell_done],
        )
        if tracer is not None:
            wall = tracer.exit(root)
            tracer.fold_meter(tr.meter_snapshot())
            tracer.fold_meter(baseline, sign=-1)
            out["trace"] = tracer.totals(wall)
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Workload definitions: the figure runs and the serve traffic mix.

Figure workloads run paper experiments at the ROADMAP baseline scale,
serially, in a fresh process with a fresh calibration-cache directory.
Their inputs are the paper's canonical datasets, seeded inside
``repro.eval.experiments``, so ``--seed`` does not change them.

``serve_mix`` drives ``python -m repro serve`` open-loop.  Its requests
come from ``--seed``; its rates are frozen here and never derived from a
capacity measured in the same run, so a faster server shows up as lower
latency and higher served throughput rather than as a higher offered load.
"""

from __future__ import annotations

import inspect
import random

#: Dataset pair-count scale of every figure workload.
SCALE = 0.1

FIGURE_WORKLOADS = ("fig13a_long", "fig13a_short", "figs_other")
SERVE_WORKLOAD = "serve_mix"
WORKLOADS = FIGURE_WORKLOADS + (SERVE_WORKLOAD,)

# -- serve_mix ---------------------------------------------------------
SERVE_IMPLS = ("wfa-vec", "ss-vec", "biwfa-vec")
SERVE_DATASETS = ("100bp_1", "250bp_1")
SERVE_TENANTS = 2
#: Distinct pairs per (dataset, implementation) in the request pool.
POOL_PAIRS = 12
#: (phase, offered requests/s).  Warm-up is untimed and fills the
#: calibration and kernel caches; overload sits above the service's
#: burst capacity.  Steady stays far below the knee: at this rate batches
#: hold one request, each paying a fork-per-batch attempt of 30-40 ms on
#: a 2-core host, and more when the host is slow.  At 20/s a slow host
#: phase built a backlog (p50 84 ms, p90 257 ms against 45/60 ms), so
#: latency measured the host, not the server.
WARMUP = ("warmup", 20.0)
STEADY = ("steady", 10.0)
OVERLOAD = ("overload", 100.0)
#: The steady phase sends for three quarters of ``--seconds``, and at
#: least 100 requests so that >= 10 lie beyond its p90.
STEADY_SHARE = 0.75
MIN_STEADY_REQUESTS = 100
#: Fixed request counts.  The overload burst stays below the server's
#: default ``--max-pending`` (256) even if nothing is served while it
#: arrives, so a slow server shows lower ``served_aps``, never
#: ``queue_full`` rejections.
WARMUP_REQUESTS = 40
OVERLOAD_REQUESTS = 240


def figure_runs(workload: str) -> "list[tuple[str, str, object, dict]]":
    """``(experiment id, title, function, kwargs)`` for a figure workload."""
    from repro.cli import EXPERIMENTS
    from repro.eval import experiments as ex

    title = EXPERIMENTS["fig13a"][1]
    if workload == "fig13a_long":
        return [("fig13a", title, ex.fig13a_single_core, dict(
            pairs_scale=SCALE, datasets=("10Kbp",), include_protein=False, jobs=1,
        ))]
    if workload == "fig13a_short":
        return [("fig13a", title, ex.fig13a_single_core, dict(
            pairs_scale=SCALE, datasets=("100bp_1", "250bp_1"), jobs=1,
        ))]
    if workload == "figs_other":
        runs = []
        for name, (fn, exp_title, scale_kw) in EXPERIMENTS.items():
            if name == "fig13a":
                continue
            kwargs = {scale_kw: SCALE} if scale_kw else {}
            if "jobs" in inspect.signature(fn).parameters:
                kwargs["jobs"] = 1
            runs.append((name, exp_title, fn, kwargs))
        return runs
    raise ValueError(f"not a figure workload: {workload!r}")


def phase_sizes(seconds: float) -> "list[tuple[str, float, int]]":
    """``(phase, rate, request count)`` for a run of ``seconds``."""
    steady = max(MIN_STEADY_REQUESTS, round(STEADY[1] * STEADY_SHARE * seconds))
    return [
        (*WARMUP, WARMUP_REQUESTS),
        (*STEADY, steady),
        (*OVERLOAD, OVERLOAD_REQUESTS),
    ]


def serve_requests(seed: int, seconds: float) -> "list[tuple[str, float, list]]":
    """The seeded traffic: ``(phase, rate, [AlignRequest])`` per phase.

    A pool of distinct pairs per (dataset, implementation) is drawn from
    the seed; each phase samples the pool in a seed-shuffled order and
    gets ids of its own (``<phase>-NNNN``), because the server answers a
    repeated request fingerprint from memory without computing.
    """
    from dataclasses import replace

    from repro.serve.client import dataset_requests

    pool = []
    for dataset in SERVE_DATASETS:
        for impl in SERVE_IMPLS:
            pool.extend(dataset_requests(
                dataset, POOL_PAIRS, impl, tenants=SERVE_TENANTS, seed=seed,
            ))
    rng = random.Random(seed)
    phases = []
    for name, rate, count in phase_sizes(seconds):
        requests = []
        while len(requests) < count:
            order = list(pool)
            rng.shuffle(order)
            requests.extend(order[: count - len(requests)])
        phases.append((name, rate, [
            replace(r, id=f"{name}-{i:04d}", tenant=f"tenant{i % SERVE_TENANTS}")
            for i, r in enumerate(requests)
        ]))
    return phases

"""Correctness gates and metric arithmetic (pure functions, unit-tested).

A figure run fails when any value of its rows or per-cell machine records
differs from the golden generated at the seed commit (the ``version``
field excepted, so a version bump is not a failure).  A serve request
fails unless it was answered ``ok`` with a line byte-identical to the
batch reference; a request that failed counts as missing every latency
limit, i.e. as an infinite latency.
"""

from __future__ import annotations

import json
import math

#: Latency reported when a percentile lands on a failed request: the
#: benchmark's own run limit, since JSON cannot carry infinity.
FAILED_LATENCY_MS = 180_000.0


# ----------------------------------------------------------------------
# Figure workloads
# ----------------------------------------------------------------------
def _canonical(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "version"}
    return json.dumps(body, sort_keys=True)


def figure_mismatches(golden: dict, records: dict) -> "list[str]":
    """Experiment ids whose record differs from the golden's."""
    names = sorted(set(golden) | set(records))
    return [
        name for name in names
        if name not in golden or name not in records
        or _canonical(golden[name]) != _canonical(records[name])
    ]


def record_totals(records: dict) -> "tuple[int, int]":
    """(simulated instructions, memory requests) over every cell."""
    instructions = requests = 0
    for record in records.values():
        for machine in record["machines"].values():
            instructions += machine["total_instructions"]
            requests += machine["mem"]["requests"]
    return instructions, requests


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------
def check_unique_ids(phases: "list[tuple[str, list[str]]]") -> None:
    """Refuse request ids reused within or across phases: the server
    answers a repeated fingerprint from memory without computing."""
    seen: "dict[str, str]" = {}
    for phase, ids in phases:
        for rid in ids:
            if rid in seen:
                raise ValueError(
                    f"request id {rid!r} of phase {phase!r} "
                    f"was already used in phase {seen[rid]!r}"
                )
            seen[rid] = phase


def request_ok(line: "str | None", expected: str) -> bool:
    """A request succeeded: answered ``ok`` and byte-identical to the
    batch reference line."""
    if line is None or line != expected:
        return False
    return json.loads(line).get("status") == "ok"


def content_key(request) -> tuple:
    """What a response depends on besides its envelope's ``id`` and
    ``tenant``: requests with equal keys get equal results."""
    return (request.impl, request.params, request.vlen_bits, request.pattern, request.text)


def expected_lines(requests, references: "dict[tuple, str]") -> "dict[str, str]":
    """Reference line for every request, from the reference computed for
    one representative per distinct :func:`content_key`: the response
    differs only in the envelope's ``id`` and ``tenant``."""
    expected = {}
    for request in requests:
        record = json.loads(references[content_key(request)])
        record["id"] = request.id
        record["tenant"] = request.tenant
        expected[request.id] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return expected


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; infinities allowed."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def finite_ms(value: float) -> float:
    return FAILED_LATENCY_MS if math.isinf(value) else value


def latencies_ms(sends: dict, arrivals: dict, ok: dict) -> "list[float]":
    """Per-request latency from its *scheduled* send time; a failed or
    unanswered request is infinitely late."""
    return [
        (arrivals[rid] - scheduled) * 1e3 if ok.get(rid) and rid in arrivals else math.inf
        for rid, (scheduled, _actual) in sends.items()
    ]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, wall_s: float, instructions: int, requests: int) -> dict:
    """Per-layer metrics from a traced run's totals.

    ``unattributed_s`` is whatever part of ``wall_s`` no layer's self
    time covers, so the self times plus it sum to the traced wall.
    """
    self_s = totals["self_s"]
    counts = totals["counts"]
    meter = totals["meter"]
    samples = totals["samples"]
    out = {}
    for layer in ("smith_waterman", "cache", "extend_loop", "machine", "program",
                  "memory", "quetzal", "fleet", "serve"):
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    calls = counts.get("smith_waterman.calls", 0)
    out["smith_waterman.calls"] = (calls, "count")
    out["smith_waterman.dp_cells"] = (counts.get("smith_waterman.dp_cells", 0), "count")
    out["smith_waterman.repeat_share"] = (_ratio(counts.get("smith_waterman.repeats", 0), calls), "ratio")
    out["cache.calib_s"] = (counts.get("cache.calib_s", 0.0), "s")
    out["cache.misses"] = (counts.get("cache.misses", 0), "count")
    out["cache.hits"] = (counts.get("cache.hits", 0), "count")
    out["extend_loop.lane_iterations_calls"] = (counts.get("extend_loop.lane_iterations_calls", 0), "count")
    out["machine.sim_instructions"] = (instructions, "count")
    blocks = meter.get("replayed_blocks", 0) + meter.get("interpreted_blocks", 0) + meter.get("captures", 0)
    replayed = meter.get("replayed_instructions", 0)
    out["program.kernel_run_s"] = (meter.get("kernel_run_s", 0.0), "s")
    out["program.compile_s"] = (meter.get("compile_s", 0.0), "s")
    out["program.block_hit_rate"] = (_ratio(meter.get("replayed_blocks", 0), blocks), "ratio")
    out["program.replayed_share"] = (
        _ratio(replayed, replayed + meter.get("interpreted_instructions", 0)), "ratio")
    out["memory.scalar_calls"] = (counts.get("memory.scalar_calls", 0), "count")
    out["memory.batch_calls"] = (counts.get("memory.batch_calls", 0), "count")
    out["memory.requests"] = (requests, "count")
    hits = meter.get("memvec_pattern_hits", 0)
    out["memory.memvec_replay_rate"] = (_ratio(hits, hits + meter.get("memvec_pattern_misses", 0)), "ratio")
    out["quetzal.read_vector_calls"] = (counts.get("quetzal.read_vector_calls", 0), "count")
    out["quetzal.elements_read"] = (counts.get("quetzal.elements_read", 0), "count")
    batches = meter.get("fleet_batches", 0)
    pairs = meter.get("fleet_pairs", 0)
    singleton = meter.get("fleet_singleton", 0)
    out["fleet.fused_batches"] = (batches, "count")
    out["fleet.occupancy"] = (_ratio(pairs, batches), "pairs")
    out["fleet.serial_share"] = (_ratio(singleton, pairs + singleton), "ratio")
    for name in ("coalesce_wait_ms", "dispatch_wait_ms", "attempt_ms"):
        values = samples.get(name) or [0.0]
        out[f"serve.{name}"] = (percentile(values, 0.5), "ms")
    sizes = samples.get("batch_size") or []
    out["serve.batch_size_mean"] = (_ratio(sum(sizes), len(sizes)), "requests")
    attributed = sum(self_s.get(layer, 0.0) for layer in self_s if layer != "unattributed")
    out["unattributed_s"] = (wall_s - attributed, "s")
    out["traced_wall_s"] = (wall_s, "s")
    return out

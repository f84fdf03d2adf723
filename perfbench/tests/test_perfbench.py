"""Tests of the benchmark's own gates and arithmetic.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import check  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from loadgen import PhaseLog  # noqa: E402
from workloads import serve_requests  # noqa: E402


# ----------------------------------------------------------------------
# Figure correctness gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    return run.load_golden("fig13a_long")


def test_golden_matches_itself(golden):
    assert check.figure_mismatches(golden, copy.deepcopy(golden)) == []


def test_one_cycle_off_fails_the_figure_run(golden):
    records = copy.deepcopy(golden)
    machine = next(iter(records["fig13a"]["machines"].values()))
    machine["cycles"] += 1
    assert check.figure_mismatches(golden, records) == ["fig13a"]


def test_version_field_is_ignored(golden):
    records = copy.deepcopy(golden)
    records["fig13a"]["version"] = "99.0.0"
    assert check.figure_mismatches(golden, records) == []


def test_missing_experiment_fails(golden):
    assert check.figure_mismatches(golden, {}) == ["fig13a"]


# ----------------------------------------------------------------------
# Serve correctness gate and latency accounting
# ----------------------------------------------------------------------
def _ok_line(rid: str, cycles: int = 100) -> str:
    return json.dumps(
        {"id": rid, "status": "ok", "cycles": cycles, "tenant": "tenant0"},
        sort_keys=True, separators=(",", ":"),
    )


def test_mutated_serve_line_fails():
    expected = _ok_line("steady-0000")
    assert check.request_ok(expected, expected)
    assert not check.request_ok(_ok_line("steady-0000", cycles=101), expected)
    assert not check.request_ok(expected + " ", expected)
    assert not check.request_ok(None, expected)


def _log(name: str, count: int, rate: float = 10.0) -> PhaseLog:
    log = PhaseLog(name, rate)
    for i in range(count):
        rid = f"{name}-{i:04d}"
        scheduled = i / rate
        log.sends[rid] = (scheduled, scheduled)
        log.arrivals[rid] = scheduled + (i + 1) / 1000.0  # i+1 ms
        log.lines[rid] = _ok_line(rid)
    return log


def _outcome(reject: "list[str]") -> dict:
    logs = [_log("warmup", 2), _log("steady", 10), _log("overload", 4)]
    expected = {rid: line for log in logs for rid, line in log.lines.items()}
    for log in logs:
        for rid in reject:
            if rid in log.lines:
                log.lines[rid] = json.dumps(
                    {"id": rid, "status": "rejected", "reason": "queue_full"},
                    sort_keys=True, separators=(",", ":"),
                )
    return run.serve_outcome({"logs": logs}, expected)


def test_rejected_response_counts_as_failed_and_late():
    clean = _outcome([])
    assert clean["failed"] == 0 and clean["attempted"] == 16
    assert clean["lat_p90_ms"] == pytest.approx(9.0)
    # The fastest steady request is rejected: it becomes infinitely late,
    # so the 9th of 10 latencies is now the former 10th.
    one = _outcome(["steady-0000"])
    assert one["failed"] == 1
    assert one["lat_p90_ms"] == pytest.approx(10.0)
    two = _outcome(["steady-0000", "steady-0001"])
    assert two["lat_p90_ms"] == check.FAILED_LATENCY_MS


def test_rejected_overload_response_is_not_served():
    clean = _outcome([])
    one = _outcome(["overload-0001"])
    assert one["served_aps"] == pytest.approx(clean["served_aps"] * 3 / 4)


def test_reused_request_ids_are_refused():
    with pytest.raises(ValueError, match="already used"):
        check.check_unique_ids([("steady", ["a", "b"]), ("overload", ["c", "a"])])
    with pytest.raises(ValueError):
        check.check_unique_ids([("steady", ["a", "a"])])


def test_generated_traffic_has_unique_ids():
    phases = serve_requests(seed=3, seconds=5)
    check.check_unique_ids([(name, [r.id for r in reqs]) for name, _, reqs in phases])
    assert [name for name, _, _ in phases] == ["warmup", "steady", "overload"]
    assert phases == serve_requests(seed=3, seconds=5)
    assert phases != serve_requests(seed=4, seconds=5)


def test_expected_lines_equal_the_batch_reference():
    from repro.serve.client import batch_reference_records

    _, _, steady = serve_requests(seed=5, seconds=1)[1]
    requests = steady[:3] + [replace(steady[0], id="again-0000", tenant="tenant1")]
    assert run.serve_expected(requests) == batch_reference_records(requests)


# ----------------------------------------------------------------------
# Tracer arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_and_unattributed_sum_to_wall():
    clock = FakeClock()
    tracer = tr.Tracer(clock)
    root = tracer.enter("unattributed")
    clock.now = 1.0
    machine = tracer.enter("machine")
    clock.now = 2.0
    tracer.enter("memory")
    clock.now = 3.0
    tracer.exit()
    clock.now = 5.0
    tracer.exit(machine)
    clock.now = 6.0
    tracer.enter("program")
    clock.now = 7.0
    tracer.exit()
    clock.now = 10.0
    wall = tracer.exit(root)
    assert wall == 10.0
    assert tracer.self_s["machine"] == 3.0
    assert tracer.self_s["memory"] == 1.0
    assert tracer.self_s["program"] == 1.0
    assert tracer.self_s["unattributed"] == 5.0
    assert sum(tracer.self_s.values()) == wall
    metrics = check.layer_metrics(tracer.totals(wall), wall, 0, 0)
    layers = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["unattributed_s"][0] == wall


def test_absorbed_child_time_leaves_the_parent_span():
    clock = FakeClock()
    tracer = tr.Tracer(clock)
    attempt = tracer.enter("serve")
    clock.now = 4.0
    tracer.absorb({
        "self_s": {"machine": 2.5, "serve": 0.5}, "counts": {}, "meter": {},
        "samples": {}, "covered_s": 3.0,
    })
    tracer.exit(attempt)
    assert tracer.self_s["serve"] == pytest.approx(1.0 + 0.5)
    assert tracer.self_s["machine"] == 2.5
    assert sum(tracer.self_s.values()) == pytest.approx(4.0)


def test_generator_spans_exclude_suspended_time():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def fiber():
        clock.now += 1.0
        sent = yield "a"
        clock.now += 2.0
        return sent

    wrapped = tr.span_wrapper(tracer, "extend_loop", fiber)
    gen = wrapped()
    assert next(gen) == "a"
    clock.now += 10.0  # suspended: someone else's time
    with pytest.raises(StopIteration) as stop:
        gen.send("b")
    assert stop.value.value == "b"
    assert tracer.self_s["extend_loop"] == 3.0


def test_install_patches_every_by_name_binding():
    script = """
import sys
sys.path.insert(0, "perfbench")
import tracer as tr
from repro.align import dp_machine, smith_waterman
from repro.align.smith_waterman import nw_gotoh_global as original
t = tr.Tracer()
tr.install(t)
assert dp_machine.nw_gotoh_global is smith_waterman.nw_gotoh_global
assert dp_machine.nw_gotoh_global is not original
assert dp_machine.banded_global_affine is smith_waterman.banded_global_affine
assert smith_waterman.nw_gotoh_global("ACGT", "ACGA") == original("ACGT", "ACGA")
smith_waterman.nw_gotoh_global("ACGT", "ACGA")
assert t.counts["smith_waterman.calls"] == 2
assert t.counts["smith_waterman.repeats"] == 1
assert t.counts["smith_waterman.dp_cells"] == 32
print("ok")
"""
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_nested_batch_entry_counts_once():
    script = """
import sys
sys.path.insert(0, "perfbench")
import tracer as tr
from repro.memory.hierarchy import MemoryHierarchy
t = tr.Tracer()
tr.install(t)
mem = MemoryHierarchy()
mem.access_batch_max(list(range(0, 64 * 100, 64)))  # > 64 rows: runs access_batch
mem.access_batch([0, 64])
mem.access_line_batch([0, 64])  # runs access_batch
assert t.counts["memory.batch_calls"] == 3, t.counts
print("ok")
"""
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"

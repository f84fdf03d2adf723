"""Regime-guard and loop-in-kernel identity and metering tests.

The replay JIT captures each block as one regime-specialised program,
runs guard loops loop-in-kernel, and interprets the pending block when
a regime guard fails (a side exit).  It promises bit-identical machine
state — clock, ``_max_complete``, the full ``MachineStats`` snapshot,
tracer totals, and register values — against ``use_replay=False``, for
any loop body with data-dependent guards.  This suite enforces that
with a randomized property harness, asserts the side-exit contract (a
WFA extend loop with a forced mismatch tail interprets its failed
blocks, meters them as ``side_exits``, and resumes loop-in-kernel on
the next all-lanes segment), covers the fleet executor's serial
fallback for rows whose regime fails, and pins meter conservation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.vector.fleet import drive_fleet, drive_serial, session_step
from repro.vector.machine import VectorMachine
from repro.vector.program import REPLAY_METER, ReplaySession

BINOPS = ["add", "sub", "mul", "min", "max", "and", "or", "xor"]


class S:
    __slots__ = ("v", "h", "inb")


def fresh_machine(trace=False):
    m = VectorMachine(SystemConfig())
    data = np.arange(4096, dtype=np.int64) % 251
    buf = m.new_buffer("b", data, elem_bytes=1)
    tracer = m.attach_tracer(capacity=64) if trace else None
    return m, buf, tracer


def run_loop_both(make_body, reps=3, trace=False):
    """Drive ``session.run_loop`` interpreted and replayed; return both
    (clock, maxc, snapshot, values, tracer-totals) tuples."""
    results = []
    for replay in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", replay)
            m, buf, tracer = fresh_machine(trace)
            body, init = make_body(m, buf)
            session = ReplaySession(m, body)
            finals = []
            for rep in range(reps):
                s = init(rep)
                session.run_loop(s)
                finals.append(tuple(
                    tuple(np.asarray(r.data).tolist())
                    for r in (s.v, s.h, s.inb)
                ))
            m.barrier()
            totals = (
                (
                    dict(tracer.instructions_by_category),
                    dict(tracer.busy_by_category),
                    dict(tracer.stall_by_category),
                )
                if tracer is not None
                else None
            )
            results.append(
                (m.clock, m._max_complete, m.snapshot(), finals, totals)
            )
    return results


def assert_identical(off, on):
    assert off[0] == on[0], f"clock diverged: {off[0]} != {on[0]}"
    assert off[1] == on[1], "_max_complete diverged"
    assert off[2] == on[2], (
        f"stats diverged:\ninterpreted {off[2]}\nreplayed    {on[2]}"
    )
    assert off[3] == on[3], "register values diverged"
    assert off[4] == on[4], "tracer totals diverged"


def conservation_delta(before):
    d = REPLAY_METER.delta(before)
    total = (
        d["captures"] + d["replayed_blocks"]
        + d["interpreted_blocks"] + d["broken"]
    )
    assert total == d["total_blocks"], f"conservation violated: {d}"
    return d


# ----------------------------------------------------------------------
# Divergent carried-predicate bodies
# ----------------------------------------------------------------------
def staggered_body(m, buf):
    """Lanes retire at strongly staggered iteration counts, so every
    rep has an all-active prefix (the captured regime) and a long
    partially active tail (side exits)."""
    lanes = m.lanes(64)
    bounds = m.from_values(10 + 9 * np.arange(lanes), 64)

    def body(mm, s):
        idx = mm.and_(s.v, 1023, pred=s.inb)
        g = mm.gather64(buf, idx, pred=s.inb)
        s.h = mm.add(s.h, mm.min(g, 7, pred=s.inb), pred=s.inb)
        s.v = mm.add(s.v, 1, pred=s.inb)
        s.inb = mm.cmp("lt", s.v, bounds, pred=s.inb)

    def init(rep):
        s = S()
        s.v = m.from_values(np.arange(lanes) + rep, 64)
        s.h = m.from_values(np.arange(lanes) * 3, 64)
        s.inb = m.ptrue(64)
        return s

    return body, init


class TestDivergentIdentity:
    def test_staggered_retirement_bit_identical(self):
        assert_identical(*run_loop_both(staggered_body, reps=4))

    def test_tracer_totals_bit_identical(self):
        assert_identical(*run_loop_both(staggered_body, reps=3, trace=True))

    def test_side_exits_interpret_then_loop_kernel_resumes(self):
        m, buf, _ = fresh_machine()
        body, init = staggered_body(m, buf)
        session = ReplaySession(m, body)
        before = REPLAY_METER.snapshot()
        session.run_loop(init(0))  # capture, loop kernel, side exits
        for rep in range(1, 4):
            mark = REPLAY_METER.snapshot()
            session.run_loop(init(rep))
            d = REPLAY_METER.delta(mark)
            # Each rep re-enters the all-active regime: the loop kernel
            # runs again after the previous rep's side exits, and the
            # partially active tail exits to the interpreter again.
            assert d["loop_calls"] >= 1, d
            assert d["loop_iters"] >= 1, d
            assert d["side_exits"] >= 1, d
            assert d["captures"] == 0, d
        d = conservation_delta(before)
        assert d["captures"] == 1, d
        assert d["interpreted_blocks"] >= d["side_exits"] >= 4, d
        assert d["loop_iters"] > d["loop_calls"], d


# ----------------------------------------------------------------------
# Acceptance meter: WFA extend with a forced mismatch tail
# ----------------------------------------------------------------------
class TestWfaExtendSideExit:
    def test_forced_mismatch_tail_interprets_side_exits(self):
        from repro.align.vectorized.extend_loop import ExtendConsts, vec_extend

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", True)
            m = VectorMachine(SystemConfig())
            length = 2048
            rng = np.random.default_rng(3)
            pattern = rng.integers(0, 4, length).astype(np.int64)
            text = pattern.copy()
            # Forced mismatch comb: lanes started at staggered offsets
            # hit mismatches on different iterations, so the extend
            # loop's active predicate goes partial — the side exit.
            text[::13] = (text[::13] + 1) % 4
            pbuf = m.new_buffer("p", pattern, elem_bytes=1)
            tbuf = m.new_buffer("t", text, elem_bytes=1)
            consts = ExtendConsts(m, length, length, 8)
            lanes = m.lanes(64)
            before = REPLAY_METER.snapshot()
            for rep in range(6):
                starts = rep * 31 + 3 * np.arange(lanes)
                v = m.from_values(starts, 64)
                h = m.from_values(starts, 64)
                vec_extend(
                    m, pbuf, tbuf, v, h, m.ptrue(64),
                    length, length, consts=consts,
                )
            m.barrier()
            d = conservation_delta(before)
        assert d["side_exits"] >= 1, (
            f"forced mismatch tail took no side exit: {d}"
        )
        assert d["interpreted_blocks"] >= d["side_exits"], d
        # Every extend call after the first starts all-lanes active, so
        # the loop kernel resumes after the previous call's side exits.
        assert d["loop_calls"] >= 5, d

    def test_forced_mismatch_tail_bit_identical(self):
        from repro.align.vectorized.extend_loop import ExtendConsts, vec_extend

        results = []
        for replay in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(VectorMachine, "use_replay", replay)
                m = VectorMachine(SystemConfig())
                length = 2048
                rng = np.random.default_rng(3)
                pattern = rng.integers(0, 4, length).astype(np.int64)
                text = pattern.copy()
                text[::13] = (text[::13] + 1) % 4
                pbuf = m.new_buffer("p", pattern, elem_bytes=1)
                tbuf = m.new_buffer("t", text, elem_bytes=1)
                consts = ExtendConsts(m, length, length, 8)
                lanes = m.lanes(64)
                outs = []
                for rep in range(4):
                    starts = rep * 31 + 3 * np.arange(lanes)
                    v = m.from_values(starts, 64)
                    h = m.from_values(starts, 64)
                    r = vec_extend(
                        m, pbuf, tbuf, v, h, m.ptrue(64),
                        length, length, consts=consts,
                    )
                    outs.append(tuple(
                        tuple(np.asarray(x.data).tolist()) for x in r
                    ))
                m.barrier()
                results.append((m.clock, m._max_complete, m.snapshot(), outs))
        off, on = results
        assert off == on, f"extend diverged with replay on:\n{off}\n{on}"


# ----------------------------------------------------------------------
# Randomized property: data-dependent guards, interpreted vs replayed
# ----------------------------------------------------------------------
def _random_guarded_body(seed):
    rng = np.random.default_rng(seed)
    n_ops = int(rng.integers(2, 7))
    plan = [
        (
            str(rng.choice(["binop", "scalar", "shift", "sel", "gather"])),
            int(rng.integers(0, len(BINOPS))),
            int(rng.integers(0, 8)),
        )
        for _ in range(n_ops)
    ]
    stride = int(rng.integers(3, 17))
    base = int(rng.integers(5, 20))

    def make(m, buf):
        lanes = m.lanes(64)
        bounds = m.from_values(base + stride * np.arange(lanes), 64)

        def body(mm, s):
            x = s.h
            for kind, a, b in plan:
                op = BINOPS[a % len(BINOPS)]
                if kind == "binop":
                    x = mm.binop(op, x, s.v, pred=s.inb)
                elif kind == "scalar":
                    x = mm.binop(op, x, 3 + b, pred=s.inb)
                elif kind == "shift":
                    x = mm.shr(mm.shl(x, b % 4, pred=s.inb), 1, pred=s.inb)
                elif kind == "sel":
                    x = mm.sel(s.inb, x, s.v)
                else:
                    idx = mm.and_(x, 1023, pred=s.inb)
                    x = mm.gather64(buf, idx, pred=s.inb)
            s.h = x
            s.v = mm.add(s.v, 1, pred=s.inb)
            s.inb = mm.cmp("lt", s.v, bounds, pred=s.inb)

        def init(rep):
            s = S()
            s.v = m.from_values(np.arange(lanes) % 5 + rep, 64)
            s.h = m.from_values(np.arange(lanes) * 7 + 1, 64)
            s.inb = m.ptrue(64)
            return s

        return body, init

    return make


class TestRandomGuardedPrograms:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_divergent_loop_bit_identical(self, seed):
        before = REPLAY_METER.snapshot()
        assert_identical(*run_loop_both(_random_guarded_body(seed), reps=3))
        conservation_delta(before)


# ----------------------------------------------------------------------
# Fleet executor: a row whose regime fails runs serially
# ----------------------------------------------------------------------
def staggered_fibers(n, reps):
    """``n`` pairs on their own machines, each driving the staggered
    body through ``session_step`` (the fleet request path)."""
    fibers = []
    for _ in range(n):
        m, buf, _ = fresh_machine()
        body, init = staggered_body(m, buf)
        session = ReplaySession(m, body)

        def fiber(m=m, session=session, init=init):
            for rep in range(reps):
                s = init(rep)
                while m.ptest_spec(s.inb):
                    yield session_step(session, s)
            m.barrier()
            return m.clock, m._max_complete, m.snapshot()

        fibers.append(fiber())
    return fibers


class TestFleetRegimeFallback:
    def test_regime_failure_is_not_fusable(self):
        m, buf, _ = fresh_machine()
        body, init = staggered_body(m, buf)
        session = ReplaySession(m, body)
        s = init(0)
        session.step(s)  # capture under the all-active regime
        assert session.fleet_prog(s) is session._prog
        assert session_step(session, s).prog is session._prog
        while s.inb.data.all():
            session.step(s)
        assert session.fleet_prog(s) is None
        assert session_step(session, s).prog is None

    def test_fleet_rows_on_side_exits_bit_identical(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", False)
            expected = [drive_serial(f) for f in staggered_fibers(3, 3)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", True)
            before = REPLAY_METER.snapshot()
            got = drive_fleet(staggered_fibers(3, 3))
            d = conservation_delta(before)
        assert got == expected
        assert d["fleet_batches"] >= 1, d
        assert d["side_exits"] >= 1, d
        assert d["fleet_serial"] >= d["side_exits"], d


# ----------------------------------------------------------------------
# Meter conservation across modes
# ----------------------------------------------------------------------
class TestMeterConservation:
    @pytest.mark.parametrize("replay", (False, True))
    def test_conservation_over_modes(self, replay):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(VectorMachine, "use_replay", replay)
            m, buf, _ = fresh_machine()
            body, init = staggered_body(m, buf)
            session = ReplaySession(m, body)
            before = REPLAY_METER.snapshot()
            for rep in range(3):
                session.run_loop(init(rep))
            d = conservation_delta(before)
            assert d["total_blocks"] > 0

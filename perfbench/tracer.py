"""Per-layer span tracer, installed from outside the program under test.

The tracer wraps the public entry points of each layer (see
:func:`install`) and keeps one span stack per thread.  Every span carries
its layer, its start time and the time its child spans covered; when it
closes, its *self time* (duration minus children) is added to its layer.
The self times of a span tree therefore sum exactly to the root span's
duration, which is the invariant the benchmark reports as
``sum(layer self times) + unattributed_s == traced wall``.

Wrappers are patched into every ``repro`` module that holds a reference to
the original function (``from x import f`` binds ``f`` at import time), so
the tracer must be installed after the imports and before the first
simulated machine is built.  Counters ride on the same wrappers; the
program's own meters (``REPLAY_METER`` and the meters it cascades to) are
folded into :attr:`Tracer.meter` on every reset, because the evaluation
funnel resets them once per experiment.

Forked serve workers inherit the wrappers; :func:`install_serve_hooks`
makes each worker write its totals to a file that the server process
absorbs under the batch attempt that forked it.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

#: Layers in report order.  ``unattributed`` is the root span's own time.
LAYERS = (
    "smith_waterman",
    "cache",
    "extend_loop",
    "machine",
    "program",
    "memory",
    "quetzal",
    "fleet",
    "serve",
    "unattributed",
)

#: Numeric fields of ``REPLAY_METER.snapshot()`` accumulated across resets.
METER_KEYS = (
    "kernel_run_s",
    "compile_s",
    "kernel_compiles",
    "captures",
    "replayed_blocks",
    "interpreted_blocks",
    "replayed_instructions",
    "interpreted_instructions",
    "memvec_pattern_hits",
    "memvec_pattern_misses",
    "fleet_batches",
    "fleet_pairs",
    "fleet_singleton",
)


class Tracer:
    """Span-stack aggregator: per-layer self time, counters and samples."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._tls = threading.local()
        self.reset()

    def reset(self) -> None:
        """Drop every total and the calling thread's open spans."""
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.samples: "defaultdict[str, list]" = defaultdict(list)
        self.meter: Counter = Counter()
        self.scored: set = set()
        self.stamps: dict = {}
        self._tls.stack = []

    def stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def enter(self, layer: str, tag=None) -> list:
        """Open a span; returns its frame ``[layer, start, child_s, tag]``."""
        frame = [layer, self.clock(), 0.0, tag]
        self.stack().append(frame)
        return frame

    def exit(self, frame: "list | None" = None) -> float:
        """Close ``frame`` (default: the innermost span); returns its
        duration.  Spans left open above it by an exception are dropped:
        their time stays inside ``frame``'s self time."""
        stack = self.stack()
        if frame is None:
            frame = stack[-1]
        while stack and stack.pop() is not frame:
            pass
        duration = self.clock() - frame[1]
        self.self_s[frame[0]] = self.self_s.get(frame[0], 0.0) + duration - frame[2]
        if stack:
            stack[-1][2] += duration
        return duration

    def find(self, tag) -> "list | None":
        for frame in reversed(self.stack()):
            if frame[3] == tag:
                return frame
        return None

    def absorb(self, totals: dict) -> None:
        """Fold a child process's totals in as children of the open span."""
        for layer, seconds in totals["self_s"].items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        self.counts.update(totals["counts"])
        self.meter.update(totals["meter"])
        for name, values in totals["samples"].items():
            self.samples[name].extend(values)
        stack = self.stack()
        if stack:
            stack[-1][2] += totals["covered_s"]

    def fold_meter(self, snapshot: dict, sign: int = 1) -> None:
        for key in METER_KEYS:
            self.meter[key] += sign * snapshot.get(key, 0)

    def totals(self, covered_s: float = 0.0) -> dict:
        """JSON-ready totals (``covered_s``: the root span's duration)."""
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "meter": dict(self.meter),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "covered_s": covered_s,
        }


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def span_wrapper(tracer: Tracer, layer: str, fn, before=None):
    """Wrap ``fn`` in a ``layer`` span; ``before(args, kwargs)`` runs
    first (for counters that read the arguments)."""
    if inspect.isgeneratorfunction(fn):
        return _generator_wrapper(tracer, layer, fn, before)
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        stack = tracer.stack()
        frame = [layer, clock(), 0.0, None]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _generator_wrapper(tracer: Tracer, layer: str, fn, before):
    """A generator function's body runs in slices, one per resume: each
    slice is its own span, so time the generator spends suspended (while
    a fleet driver runs other fibers) is never charged to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        gen = fn(*args, **kwargs)
        send, throw = gen.send, None
        value = None
        while True:
            frame = tracer.enter(layer)
            try:
                item = send(value) if throw is None else gen.throw(throw)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(frame)
            throw = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                throw = exc

    return wrapper


def patch_function(module, name: str, wrapper) -> int:
    """Replace ``module.name`` with ``wrapper`` in every ``repro`` module
    that bound the original by name; returns how many bindings changed."""
    original = getattr(module, name)
    patched = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
                patched += 1
    return patched


def patch_method(cls, name: str, wrapper_factory) -> None:
    setattr(cls, name, wrapper_factory(cls.__dict__[name]))


def _subclasses(cls):
    seen = []
    todo = [cls]
    while todo:
        c = todo.pop()
        seen.append(c)
        todo.extend(c.__subclasses__())
    return seen


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _banded_cells(m: int, n: int, band: int) -> int:
    if abs(n - m) > band:
        return 0
    total = 0
    for i in range(1, m + 1):
        total += max(0, min(n, i + band) - max(1, i - band) + 1)
    return total


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Install every layer's wrappers into the imported ``repro`` modules."""
    import repro.eval.experiments  # noqa: F401  (imports every implementation)
    import repro.serve.protocol  # noqa: F401
    from repro import cache as cache_mod
    from repro.align import smith_waterman as sw
    from repro.align.interface import Implementation
    from repro.align.vectorized import extend_loop
    from repro.memory import memvec
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.quetzal.accelerator import QuetzalUnit
    from repro.quetzal.qbuffer import QBuffer
    from repro.vector import fleet, program

    def wrap(layer, before=None):
        return lambda fn: span_wrapper(tracer, layer, fn, before)

    def count(name):
        def before(args, kwargs):
            tracer.counts[name] += 1
        return before

    def count_batch_entry(args, kwargs):
        # Batch entry points call each other (``access_batch_max`` runs
        # ``access_batch``): count only entries from outside the layer.
        stack = tracer.stack()
        if not stack or stack[-1][0] != "memory":
            tracer.counts["memory.batch_calls"] += 1

    # -- smith_waterman: the reference oracle ---------------------------
    def oracle(kind, fn):
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            pattern, text = bound.arguments["pattern"], bound.arguments["text"]
            band = bound.arguments.get("band")
            m, n = len(pattern), len(text)
            if kind == "unbanded":
                cells = m * n
            elif kind == "banded":
                cells = _banded_cells(m, n, int(band))
            else:
                cells = m * min(n, 2 * int(band) + 1)
            key = (kind, _digest(pattern, text), repr(bound.arguments.get("penalties")), band)
            tracer.counts["smith_waterman.calls"] += 1
            tracer.counts["smith_waterman.dp_cells"] += cells
            if key in tracer.scored:
                tracer.counts["smith_waterman.repeats"] += 1
            tracer.scored.add(key)

        return before

    for name, kind in (
        ("sw_gotoh_local", "unbanded"),
        ("nw_gotoh_global", "unbanded"),
        ("banded_global_affine", "banded"),
        ("adaptive_banded_affine", "adaptive"),
    ):
        fn = getattr(sw, name)
        patch_function(sw, name, span_wrapper(tracer, "smith_waterman", fn, oracle(kind, fn)))

    # -- cache: calibration measurements --------------------------------
    # A miss opens a ``cache`` span that the put of the same key closes:
    # the measurement in between is the calibration the cache exists for.
    cache_cls = cache_mod.CalibrationCache
    orig_get, orig_put = cache_cls.get, cache_cls.put

    def get(self, key):
        value = orig_get(self, key)
        if value is None:
            tracer.counts["cache.misses"] += 1
            tracer.enter("cache", tag=("calib", key))
        else:
            tracer.counts["cache.hits"] += 1
        return value

    def put(self, key, value):
        frame = tracer.find(("calib", key))
        if frame is not None:
            tracer.counts["cache.calib_s"] += tracer.clock() - frame[1]
            tracer.exit(frame)
        return orig_put(self, key, value)

    cache_cls.get, cache_cls.put = get, put

    # -- extend_loop: the calibrated extend model -----------------------
    for name in ("extend_chunks_gen", "account_wave_extend", "account_extend_memory"):
        patch_function(extend_loop, name, span_wrapper(
            tracer, "extend_loop", getattr(extend_loop, name)
        ))
    patch_function(extend_loop, "lane_iterations", span_wrapper(
        tracer, "extend_loop", extend_loop.lane_iterations,
        count("extend_loop.lane_iterations_calls"),
    ))
    for name in ("per_iteration", "entry"):
        patch_method(extend_loop.LoopCostModel, name, wrap("extend_loop"))

    # -- machine: the interpreter (whatever the other layers leave) -----
    for cls in _subclasses(Implementation):
        for name in ("run_pair", "run_pair_gen"):
            if name in cls.__dict__:
                patch_method(cls, name, wrap("machine"))
    patch_function(fleet, "drive_fleet", span_wrapper(tracer, "machine", fleet.drive_fleet))
    patch_method(program.ReplaySession, "_interpret", wrap("machine"))

    # -- program: replay kernels, capture and codegen -------------------
    patch_function(program, "capture", span_wrapper(tracer, "program", program.capture))
    patch_method(program.Recorder, "finish", wrap("program"))
    orig_init = program.RecordedProgram.__init__

    def recorded_init(self, fn, *args, **kwargs):
        orig_init(self, span_wrapper(tracer, "program", fn), *args, **kwargs)

    program.RecordedProgram.__init__ = recorded_init
    orig_compile_loop = program._compile_loop

    def compile_loop(prog):
        frame = tracer.enter("program")
        try:
            fn = orig_compile_loop(prog)
        finally:
            tracer.exit(frame)
        if callable(fn):
            return span_wrapper(tracer, "program", fn)
        return fn

    patch_function(program, "_compile_loop", compile_loop)

    # The meters are reset once per evaluated experiment: fold each
    # window into the totals before it is cleared.
    meter_cls = type(program.REPLAY_METER)
    orig_reset = meter_cls.reset

    def meter_reset(self):
        if self is program.REPLAY_METER:
            tracer.fold_meter(self.snapshot())
        orig_reset(self)

    meter_cls.reset = meter_reset

    # -- memory: hierarchy and memvec -----------------------------------
    for name in ("access", "access_line"):
        patch_method(MemoryHierarchy, name, wrap("memory", count("memory.scalar_calls")))
    for name in ("access_batch", "access_batch_max", "access_line_batch"):
        patch_method(MemoryHierarchy, name, wrap("memory", count_batch_entry))
    for name in ("touch", "account_streaming", "account_extra_hits"):
        patch_method(MemoryHierarchy, name, wrap("memory"))
    for name in ("retire_rows", "replay_batch"):
        patch_function(memvec, name, span_wrapper(tracer, "memory", getattr(memvec, name)))

    # -- quetzal: QBUFFER model -----------------------------------------
    def read_vector_counts(args, kwargs):
        tracer.counts["quetzal.read_vector_calls"] += 1
        tracer.counts["quetzal.elements_read"] += len(args[1])

    patch_method(QBuffer, "read_vector", wrap("quetzal", read_vector_counts))
    for name in ("write_encoded", "write_words", "write_elements"):
        patch_method(QBuffer, name, wrap("quetzal"))
    for name in (
        "qzconf", "qzencode", "qzstore", "load_sequence", "load_values",
        "qzload", "qzmhm", "qzmm", "qzcount", "save_context",
        "restore_context", "clear",
    ):
        patch_method(QuetzalUnit, name, wrap("quetzal"))

    # -- fleet: fused cross-pair kernels --------------------------------
    patch_function(fleet, "_run_group", span_wrapper(tracer, "fleet", fleet._run_group))


def meter_snapshot() -> dict:
    from repro.vector.program import REPLAY_METER

    return REPLAY_METER.snapshot()


# ----------------------------------------------------------------------
# Serve: server-side stamps and forked-worker absorption
# ----------------------------------------------------------------------
def install_serve_hooks(tracer: Tracer, trace_dir: str) -> None:
    """Spans and stamps for ``repro serve`` (call after :func:`install`).

    The batch path on the server's executor thread is traced as
    ``serve`` spans; each forked worker traces its ``compute_batch`` as a
    root span and writes its totals to ``trace_dir``, and the attempt
    span that forked it absorbs them, so worker compute is attributed to
    its layers and the attempt keeps only fork, pickling and waiting.
    """
    from repro.serve import engine as engine_mod
    from repro.serve import server as server_mod
    from repro.serve.coalescer import Coalescer

    server_pid = os.getpid()
    now = time.monotonic

    orig_add = Coalescer.add

    def add(self, request, at):
        tracer.stamps[id(request)] = at
        return orig_add(self, request, at)

    Coalescer.add = add

    orig_dispatch = server_mod.AlignmentServer._dispatch

    def dispatch(self, batch):
        released = now()
        tracer.stamps[id(batch)] = released
        for request in batch:
            arrived = tracer.stamps.pop(id(request), None)
            if arrived is not None:
                tracer.samples["coalesce_wait_ms"].append((released - arrived) * 1e3)
        return orig_dispatch(self, batch)

    server_mod.AlignmentServer._dispatch = dispatch

    orig_execute = engine_mod.ServeEngine.execute_batch

    def execute_batch(self, requests):
        released = tracer.stamps.pop(id(requests), None)
        if released is not None:
            tracer.samples["dispatch_wait_ms"].append((now() - released) * 1e3)
        tracer.samples["batch_size"].append(len(requests))
        frame = tracer.enter("serve")
        try:
            return orig_execute(self, requests)
        finally:
            tracer.exit(frame)

    engine_mod.ServeEngine.execute_batch = execute_batch

    orig_attempt = engine_mod.ServeEngine._attempt_in_worker

    def attempt(self, requests, ordinal, attempt_no):
        frame = tracer.enter("serve")
        started = tracer.clock()
        try:
            return orig_attempt(self, requests, ordinal, attempt_no)
        finally:
            tracer.samples["attempt_ms"].append((tracer.clock() - started) * 1e3)
            for path in sorted(glob.glob(os.path.join(trace_dir, "worker-*.json"))):
                with open(path) as handle:
                    tracer.absorb(json.load(handle))
                os.unlink(path)
            tracer.exit(frame)

    engine_mod.ServeEngine._attempt_in_worker = attempt

    orig_compute = engine_mod.compute_batch

    def compute_batch(requests, fleet_width):
        if os.getpid() == server_pid:
            return orig_compute(requests, fleet_width)
        # Forked worker: start from zero (the fork copied the server's
        # totals and the open attempt span) and hand totals back.
        tracer.reset()
        baseline = meter_snapshot()
        root = tracer.enter("serve")
        try:
            return orig_compute(requests, fleet_width)
        finally:
            covered = tracer.exit(root)
            tracer.fold_meter(meter_snapshot())
            tracer.fold_meter(baseline, sign=-1)
            path = os.path.join(trace_dir, f"worker-{os.getpid()}.json")
            with open(path + ".tmp", "w") as handle:
                json.dump(tracer.totals(covered), handle)
            os.replace(path + ".tmp", path)

    patch_function(engine_mod, "compute_batch", compute_batch)

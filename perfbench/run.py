"""The repository benchmark: end-to-end and per-layer metrics per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig13a_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --summary [--seconds 20] [--seed 1]

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload untraced and then once more with the layer wrappers of
``tracer.py`` installed, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--summary`` runs every
workload untraced, prints every end-to-end metric (``failed_share``
included) by name and unit, and exits 1 on any failed operation.

Figure workloads run each iteration in a fresh process with an empty
calibration cache and check its rows and per-cell machine records against
``golden/<workload>.json``.  ``serve_mix`` starts ``python -m repro serve``,
drives it with ``loadgen.py`` and checks every response byte for byte
against the batch reference.  Work files live under ``perfbench/_work``
and are removed at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
#: Set-up samples per run (figure iterations count towards it); each
#: spawn costs about 0.4 s, and one sample is too noisy to compare.
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170.0

sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import loadgen  # noqa: E402
from workloads import SERVE_WORKLOAD, WORKLOADS, serve_requests  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env(cache_dir: Path, **extra: str) -> dict:
    """Environment of every process under test: pinned hash seed, the
    checkout's sources, a fresh calibration cache, no inherited toggles."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(cache_dir),
    )
    env.update(extra)
    return env


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``; returns ``(exit code, rusage)``.  The rusage of a
    reaped child covers the children it reaped itself, so its
    ``ru_maxrss`` is the peak of the process and its workers."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"{proc.args!r} timed out after {timeout:.0f}s")
        time.sleep(0.01)


def _tail(path: Path) -> str:
    return "".join(path.read_text(errors="replace").splitlines(True)[-20:])


# ----------------------------------------------------------------------
# Figure workloads
# ----------------------------------------------------------------------
def figure_iteration(workload: str, mode: str, work: Path) -> dict:
    """One fresh-process iteration; adds ``setup_s``, ``wall_s``, ``rss_mb``."""
    it_dir = Path(tempfile.mkdtemp(prefix="it-", dir=work))
    out, err = it_dir / "out.json", it_dir / "stderr"
    cmd = [sys.executable, str(BENCH / "figure_child.py"), workload, str(out), mode]
    with open(err, "w") as err_file:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(it_dir / "cache"),
            stdout=subprocess.DEVNULL, stderr=err_file,
        )
        code, usage = wait_child(proc, CHILD_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"{workload} iteration exited {code}:\n{_tail(err)}")
    data = json.loads(out.read_text())
    shutil.rmtree(it_dir)
    data["setup_s"] = data["ready"] - spawned
    data["rss_mb"] = usage.ru_maxrss / 1024.0
    if "done" in data:
        data["wall_s"] = data["done"] - data["ready"]
    return data


def figure_iterations(workload: str, seconds: float, work: Path) -> "list[dict]":
    """Untraced iterations until another would end more than a quarter
    past ``seconds`` (so a workload whose iteration takes half the run
    still gets two)."""
    iterations = []
    start = time.monotonic()
    while True:
        iterations.append(figure_iteration(workload, "run", work))
        elapsed = time.monotonic() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > 1.25 * seconds:
            return iterations


def load_golden(workload: str) -> dict:
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing golden {path} (run perfbench/make_golden.py)")
    return json.loads(path.read_text())["records"]


def run_figure(workload: str, seconds: float, trace: bool, work: Path) -> dict:
    golden = load_golden(workload)
    iterations = figure_iterations(workload, seconds, work)
    setups = [it["setup_s"] for it in iterations]
    while len(setups) < SETUP_SAMPLES:
        setups.append(figure_iteration(workload, "setup", work)["setup_s"])
    traced = figure_iteration(workload, "trace", work) if trace else None
    checked = iterations + ([traced] if traced else [])
    failed = sum(1 for it in checked if check.figure_mismatches(golden, it["records"]))
    result = {"correct": failed == 0, "attempted": len(checked), "failed": failed}
    walls = [it["wall_s"] for it in iterations]
    if trace:
        totals = traced["trace"]
        instructions, requests = check.record_totals(traced["records"])
        metrics = check.layer_metrics(totals, totals["covered_s"], instructions, requests)
        metrics.update(_serve_counters({}))
        metrics["loadgen.lag_p90_ms"] = (0.0, "ms")
        metrics["trace_overhead_s"] = (traced["wall_s"] - statistics.median(walls), "s")
    else:
        # Cells run serially in a fixed order, so each iteration's
        # percentile is the same cell's completion time; pooling the
        # iterations instead would let the rank jump between cells.
        def cell_percentile(q):
            return statistics.median(check.percentile(it["cell_ms"], q) for it in iterations)

        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(it["rss_mb"] for it in iterations), "MiB"),
            "lat_p50_ms": (cell_percentile(0.5), "ms"),
            "lat_p90_ms": (cell_percentile(0.9), "ms"),
            "served_aps": (statistics.median(
                it["alignments"] / it["wall_s"] for it in iterations), "alignments/s"),
        }
    result["metrics"] = metrics
    return result


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
def start_server(cmd: "list[str]", sock: str, env: dict, err: Path):
    """Spawn a server; returns ``(proc, seconds until it accepts)``."""
    with open(err, "w") as err_file:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err_file,
        )
    while True:
        probe = socket.socket(socket.AF_UNIX)
        try:
            probe.connect(sock)
            return proc, time.monotonic() - spawned
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        finally:
            probe.close()
        if proc.poll() is not None:
            raise BenchError(f"server exited {proc.returncode}:\n{_tail(err)}")
        if time.monotonic() - spawned > 60:
            stop_server(proc)
            raise BenchError("server did not accept connections within 60s")
        time.sleep(0.002)


def stop_server(proc: subprocess.Popen):
    """SIGTERM (graceful drain) and reap; returns ``(exit code, rusage)``."""
    proc.send_signal(signal.SIGTERM)
    return wait_child(proc, 60.0)


def _server_counters(err: Path) -> dict:
    for line in reversed(err.read_text().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError(f"server printed no counters:\n{_tail(err)}")


def _serve_counters(counters: dict) -> dict:
    engine = counters.get("engine", {})
    rejected = counters.get("admission", {}).get("rejected", {})
    return {
        "serve.denied": (sum(rejected.values()), "count"),
        "serve.retries": (engine.get("retries", 0), "count"),
        "serve.restored": (engine.get("restored", 0), "count"),
    }


def serve_run(phases, work: Path, traced: bool) -> dict:
    """Start a server, drive every phase, stop it; raw logs and counters."""
    run_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=work))
    sock = os.path.relpath(run_dir / "s.sock", ROOT)
    err = run_dir / "stderr"
    env = child_env(run_dir / "cache")
    if traced:
        trace_dir = run_dir / "trace"
        trace_dir.mkdir()
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        cmd = [sys.executable, str(BENCH / "serve_traced.py"), "--unix", sock]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", "--unix", sock]
    proc, setup_s = start_server(cmd, sock, env, err)
    try:
        async def between(phase: str) -> None:
            if traced and phase == "steady":
                ack = trace_dir / "reset.ack"
                proc.send_signal(signal.SIGUSR1)
                deadline = time.monotonic() + 10.0
                while not ack.exists():
                    if time.monotonic() > deadline:
                        raise BenchError("traced server did not acknowledge SIGUSR1")
                    await asyncio.sleep(0.005)

        logs = asyncio.run(loadgen.drive(sock, phases, between))
    finally:
        code, usage = stop_server(proc)
    if code != 0:
        raise BenchError(f"server exited {code}:\n{_tail(err)}")
    out = {
        "setup_s": setup_s,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "logs": logs,
        "counters": _server_counters(err),
    }
    if traced:
        out["trace"] = json.loads((trace_dir / "server.json").read_text())
    shutil.rmtree(run_dir)
    return out


def serve_setup(work: Path) -> float:
    """Seconds from spawn until an idle server accepts connections."""
    run_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    sock = os.path.relpath(run_dir / "s.sock", ROOT)
    cmd = [sys.executable, "-m", "repro", "serve", "--unix", sock]
    proc, setup_s = start_server(cmd, sock, child_env(run_dir / "cache"), run_dir / "stderr")
    stop_server(proc)
    shutil.rmtree(run_dir)
    return setup_s


def serve_expected(requests) -> "dict[str, str]":
    """Batch-reference line per request, computing each distinct
    content once (:func:`repro.serve.client.batch_reference_records`)."""
    from repro.serve.client import batch_reference_records

    reps = {}
    for request in requests:
        reps.setdefault(check.content_key(request), request)
    lines = batch_reference_records(list(reps.values()))
    references = {key: lines[rep.id] for key, rep in reps.items()}
    return check.expected_lines(requests, references)


def serve_outcome(run: dict, expected: dict) -> dict:
    """Per-phase correctness and the end-to-end serve numbers."""
    logs = {log.name: log for log in run["logs"]}
    ok = {}
    for log in run["logs"]:
        for rid in log.sends:
            ok[rid] = check.request_ok(log.lines.get(rid), expected[rid])
    steady, overload = logs["steady"], logs["overload"]
    lat = check.latencies_ms(steady.sends, steady.arrivals, ok)
    first_overload = min(s for s, _ in overload.sends.values())
    last_overload = max(overload.arrivals.values(), default=first_overload)
    served = sum(1 for rid in overload.sends if ok[rid])
    first_steady = min(s for s, _ in steady.sends.values())
    lags = [
        (actual - scheduled) * 1e3
        for log in (steady, overload)
        for scheduled, actual in log.sends.values()
    ]
    return {
        "attempted": len(ok),
        "failed": sum(1 for v in ok.values() if not v),
        "ok": ok,
        "lat_p50_ms": check.finite_ms(check.percentile(lat, 0.5)),
        "lat_p90_ms": check.finite_ms(check.percentile(lat, 0.9)),
        "served_aps": served / (last_overload - first_overload),
        "wall_s": last_overload - first_steady,
        "lag_p90_ms": check.percentile(lags, 0.9),
    }


def _ok_totals(run: dict, ok: dict) -> "tuple[int, int]":
    instructions = requests = 0
    for log in run["logs"]:
        if log.name == "warmup":
            continue
        for rid, line in log.lines.items():
            if ok.get(rid):
                machine = json.loads(line)["machine"]
                instructions += machine["total_instructions"]
                requests += machine["mem"]["requests"]
    return instructions, requests


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    phases = serve_requests(seed, seconds)
    check.check_unique_ids([(name, [r.id for r in reqs]) for name, _, reqs in phases])
    setups = [serve_setup(work) for _ in range(SETUP_SAMPLES - 1)]
    run = serve_run(phases, work, traced=False)
    setups.append(run["setup_s"])
    traced = serve_run(phases, work, traced=True) if trace else None
    expected = serve_expected([r for _, _, reqs in phases for r in reqs])
    outcome = serve_outcome(run, expected)
    attempted, failed = outcome["attempted"], outcome["failed"]
    if traced:
        traced_outcome = serve_outcome(traced, expected)
        attempted += traced_outcome["attempted"]
        failed += traced_outcome["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        wall = traced_outcome["wall_s"]
        instructions, requests = _ok_totals(traced, traced_outcome["ok"])
        metrics = check.layer_metrics(traced["trace"], wall, instructions, requests)
        metrics.update(_serve_counters(traced["counters"]))
        metrics["loadgen.lag_p90_ms"] = (outcome["lag_p90_ms"], "ms")
        metrics["trace_overhead_s"] = (wall - outcome["wall_s"], "s")
    else:
        metrics = {
            "wall_s": (outcome["wall_s"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["rss_mb"], "MiB"),
            "lat_p50_ms": (outcome["lat_p50_ms"], "ms"),
            "lat_p90_ms": (outcome["lat_p90_ms"], "ms"),
            "served_aps": (outcome["served_aps"], "alignments/s"),
        }
    result["metrics"] = metrics
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH / "_work" / f"run-{os.getpid()}-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload == SERVE_WORKLOAD:
            result = run_serve(seed, seconds, trace, work)
        else:
            result = run_figure(workload, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    return result


def summary(seed: int, seconds: float) -> int:
    """Every end-to-end metric of every workload by name and unit."""
    any_failed = False
    print(f"{'workload':<14} {'metric':<14} {'value':>14}  unit")
    for workload in WORKLOADS:
        result = run_workload(workload, seed, seconds, trace=False)
        share = result["failed"] / result["attempted"]
        any_failed |= result["failed"] > 0 or not result["correct"]
        rows = dict(result["metrics"])
        rows["failed_share"] = {"value": share, "unit": "ratio"}
        for name, metric in rows.items():
            print(f"{workload:<14} {name:<14} {metric['value']:>14.4f}  {metric['unit']}")
        sys.stdout.flush()
    if any_failed:
        print("FAILED: at least one operation failed", file=sys.stderr)
    return 1 if any_failed else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload untraced and print a table")
    args = parser.parse_args(argv)
    if not args.summary and args.workload is None:
        parser.error("--workload is required (or --summary)")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Serve references are computed in this process and must hash
        # like the server (prefetcher stream ids come from hash()).
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.summary:
            return summary(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

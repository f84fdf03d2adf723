"""``python -m repro serve`` with the layer wrappers installed.

Usage (from the checkout root, with ``PERFBENCH_TRACE_DIR`` set)::

    python perfbench/serve_traced.py --unix PATH [serve options]

Forked batch workers inherit the wrappers and hand their totals back
through ``PERFBENCH_TRACE_DIR``.  ``SIGUSR1`` zeroes the totals (the load
generator sends it after the untimed warm-up) and writes ``reset.ack``;
on exit the server's totals go to ``server.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys


def main(argv: "list[str]") -> int:
    from repro.serve.cli import serve_main

    import tracer as tr

    trace_dir = os.environ["PERFBENCH_TRACE_DIR"]
    tracer = tr.Tracer()
    tr.install(tracer)
    tr.install_serve_hooks(tracer, trace_dir)

    def on_reset(signum, frame):
        tracer.reset()
        open(os.path.join(trace_dir, "reset.ack"), "w").close()

    signal.signal(signal.SIGUSR1, on_reset)
    code = serve_main(argv)
    with open(os.path.join(trace_dir, "server.json"), "w") as handle:
        json.dump(tracer.totals(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

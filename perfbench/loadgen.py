"""The benchmark's own open-loop load generator.

All phases share one connection.  Request ``i`` of a phase is due at
``phase_start + i / rate`` whatever the server does, and its latency is
measured from that *scheduled* time, so a generator or server stall
delays every later request in the numbers instead of hiding in them.  How
late each send actually ran against its schedule is kept as the
generator's lag.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

#: Gap between a phase's start and its first scheduled send.
LEAD_S = 0.05
#: How long a phase waits for its responses after its last send.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class PhaseLog:
    """What happened to one phase's requests (times in loop seconds)."""

    name: str
    rate: float
    #: id -> (scheduled send, actual send)
    sends: "dict[str, tuple[float, float]]" = field(default_factory=dict)
    #: id -> response arrival
    arrivals: "dict[str, float]" = field(default_factory=dict)
    #: id -> response line (without the newline)
    lines: "dict[str, str]" = field(default_factory=dict)


def _request_line(request) -> bytes:
    from repro.serve.client import request_line

    return (request_line(request) + "\n").encode("utf-8")


async def drive(address: str, phases, between) -> "list[PhaseLog]":
    """Run ``phases`` (``(name, rate, requests)``) back to back.

    Each phase waits for all of its responses (or ``DRAIN_TIMEOUT_S``
    after its last send) before ``between(next_phase_name)`` is awaited
    and the next phase starts.
    """
    reader, writer = await asyncio.open_unix_connection(address)
    loop = asyncio.get_running_loop()
    waiting: "dict[str, PhaseLog]" = {}
    done = asyncio.Event()

    async def receive() -> None:
        while True:
            raw = await reader.readline()
            if not raw:
                done.set()
                return
            arrived = loop.time()
            line = raw.decode("utf-8").rstrip("\n")
            rid = json.loads(line).get("id", "")
            log = waiting.pop(rid, None)
            if log is not None:
                log.arrivals[rid] = arrived
                log.lines[rid] = line
            if not waiting:
                done.set()

    receiver = asyncio.create_task(receive())
    logs = []
    try:
        for index, (name, rate, requests) in enumerate(phases):
            if index:
                await between(name)
            log = PhaseLog(name, rate)
            logs.append(log)
            payloads = [(r.id, _request_line(r)) for r in requests]
            done.clear()
            for rid, _ in payloads:
                waiting[rid] = log
            start = loop.time() + LEAD_S
            for i, (rid, payload) in enumerate(payloads):
                scheduled = start + i / rate
                delay = scheduled - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                log.sends[rid] = (scheduled, loop.time())
                writer.write(payload)
                await writer.drain()
            try:
                await asyncio.wait_for(done.wait(), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                for rid in [r for r, owner in waiting.items() if owner is log]:
                    del waiting[rid]
    finally:
        if writer.can_write_eof():
            writer.write_eof()
        try:
            await asyncio.wait_for(receiver, DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            receiver.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    return logs

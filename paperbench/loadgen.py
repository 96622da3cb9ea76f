"""Open-loop HTTP lookup generator.

Requests are sent on a fixed schedule whatever the server does: request
``i`` of a step is due at ``start + i / rate``. They are spread round
robin over a few keep-alive connections and pipelined (a connection
does not wait for a response before sending its next request). Each
request is timed from its due time to the end of its response, so a
stall also charges the requests queued behind it. The generator records
how late it sent each request and samples the backlog (requests due
but not yet answered) every few milliseconds.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Dict, List, Sequence

SAMPLE_S = 0.01


class StepResult:
    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [None] * n
        self.done = [None] * n
        self.status = [0] * n
        self.body: List[bytes] = [b""] * n
        self.backlog: List[int] = []
        self.errors: List[str] = []


async def _writer(stream, indices: Sequence[int], payloads: Sequence[bytes],
                  res: StepResult, pending: deque) -> None:
    pos = 0
    while pos < len(indices):
        now = time.perf_counter()
        wait = res.due[indices[pos]] - now
        if wait > 0:
            await asyncio.sleep(wait)
            now = time.perf_counter()
        chunk = []
        while pos < len(indices) and res.due[indices[pos]] <= now:
            i = indices[pos]
            chunk.append(payloads[i])
            res.sent[i] = now
            pending.append(i)
            pos += 1
        stream.write(b"".join(chunk))
        await stream.drain()


async def _reader(stream, res: StepResult, pending: deque, expected: int,
                  answered: List[int]) -> None:
    for __ in range(expected):
        head = await stream.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        body = await stream.readexactly(length)
        i = pending.popleft()
        res.done[i] = time.perf_counter()
        res.status[i] = int(head[9:12])
        res.body[i] = body
        answered[0] += 1


async def _sampler(res: StepResult, answered: List[int], until: float) -> None:
    due = res.due
    k = 0
    while time.perf_counter() < until:
        now = time.perf_counter()
        while k < len(due) and due[k] <= now:
            k += 1
        res.backlog.append(k - answered[0])
        await asyncio.sleep(SAMPLE_S)


async def run_step(conns, payloads: Sequence[bytes], rate: float,
                   drain_s: float) -> StepResult:
    """Send ``payloads`` at ``rate`` per second over ``conns`` (reader,
    writer) pairs; wait up to ``drain_s`` after the last due time."""
    n = len(payloads)
    res = StepResult(n)
    start = time.perf_counter() + 0.02
    res.due = [start + i / rate for i in range(n)]
    answered = [0]
    tasks = []
    for c, (reader, writer) in enumerate(conns):
        indices = list(range(c, n, len(conns)))
        pending: deque = deque()
        tasks.append(asyncio.ensure_future(_writer(writer, indices, payloads, res, pending)))
        tasks.append(asyncio.ensure_future(_reader(reader, res, pending, len(indices), answered)))
    end = res.due[-1]
    sampler = asyncio.ensure_future(_sampler(res, answered, end))
    done, not_done = await asyncio.wait(tasks, timeout=end - time.perf_counter() + drain_s)
    for task in not_done:
        task.cancel()
    await asyncio.gather(*not_done, sampler, return_exceptions=True)
    for task in done:
        if task.exception() is not None:
            res.errors.append(f"connection failed: {task.exception()!r}")
    if not_done:
        res.errors.append(f"{n - answered[0]} requests unanswered after {drain_s:g} s")
    return res


async def open_connections(port: int, n: int):
    return [await asyncio.open_connection("127.0.0.1", port) for __ in range(n)]


async def close_connections(conns) -> None:
    for __, writer in conns:
        writer.close()
    for __, writer in conns:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def step_stats(res: StepResult, rate: float) -> Dict[str, float]:
    """Latency (from due time), lateness and backlog of one step."""
    import numpy as np

    answered = [i for i, d in enumerate(res.done) if d is not None]
    lat = np.array([(res.done[i] - res.due[i]) * 1e3 for i in answered])
    first = res.due[0] if res.due else 0.0
    last = max((d for d in res.done if d is not None), default=first)
    late = np.array([(s - d) * 1e3 for s, d in zip(res.sent, res.due) if s is not None])
    backlog = np.array(res.backlog or [0])
    n = len(res.due)
    return {
        "requests": n,
        "answered": len(answered),
        "sent_all": all(s is not None for s in res.sent),
        "p50_ms": float(np.percentile(lat, 50)) if lat.size else float("inf"),
        "p99_ms": float(np.percentile(lat, 99)) if lat.size else float("inf"),
        "late_p99_ms": float(np.percentile(late, 99)) if late.size else float("inf"),
        "backlog_max": int(backlog.max()),
        # still 100 ms of requests behind when the schedule ends
        "backlog_growing": bool(backlog[-1] > 0.1 * rate),
        # completions per second, from the first due time to the last answer
        "achieved_rps": len(answered) / (last - first) if last > first else 0.0,
    }

"""Open-loop HTTP load generator for the results service.

Requests arrive on a seeded Poisson schedule at a fixed offered rate,
whatever the service does; at most ``connections`` are in flight at
once (one process, asyncio).  Each request is timed from when it was
*due*, so a stall also charges the wait it imposes on later requests;
how late the generator itself issued each request (event-loop lag,
not the wait for a free connection) is recorded separately.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Response:
    """One completed (or failed) request."""

    url: str
    status: int
    digest: str
    latency_s: float
    late_s: float


@dataclass
class StepResult:
    """Every response of one fixed-rate step."""

    rate: float
    duration_s: float
    responses: List[Response] = field(default_factory=list)
    #: Requests due but not yet answered when the step's window closed.
    backlog_at_end: int = 0

    def latencies_ms(self) -> List[float]:
        return [r.latency_s * 1e3 for r in self.responses]


def arrival_times(rate: float, duration_s: float, rng: random.Random) -> List[float]:
    """Seeded Poisson arrival offsets in ``[0, duration_s)``."""
    times, moment = [], 0.0
    while True:
        moment += rng.expovariate(rate)
        if moment >= duration_s:
            return times
        times.append(moment)


async def _fetch(host: str, port: int, url: str) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {url} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, body


async def _run_step(
    host: str,
    port: int,
    urls: Sequence[str],
    offsets: Sequence[float],
    rate: float,
    duration_s: float,
    connections: int,
    drain_s: float,
) -> StepResult:
    result = StepResult(rate=rate, duration_s=duration_s)
    slots = asyncio.Semaphore(connections)
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01

    async def one(url: str, due: float, late: float) -> None:
        async with slots:
            try:
                status, body = await _fetch(host, port, url)
            except (OSError, ValueError, IndexError):
                status, body = 0, b""
            done = loop.time()
        result.responses.append(
            Response(url, status, body_digest(body), done - due, late)
        )

    tasks = []
    for url, offset in zip(urls, offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(url, due, max(loop.time() - due, 0.0))))
    window_end = start + duration_s
    if window_end > loop.time():
        await asyncio.sleep(window_end - loop.time())
    result.backlog_at_end = sum(1 for task in tasks if not task.done())
    finished, pending = await asyncio.wait(tasks, timeout=drain_s) if tasks else (set(), set())
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in finished:
        task.result()
    # Requests abandoned after the drain deadline count as failures.
    for _ in pending:
        result.responses.append(Response("", 0, "", float("inf"), float("inf")))
    return result


def run_step(
    host: str,
    port: int,
    urls: Sequence[str],
    rate: float,
    duration_s: float,
    rng: random.Random,
    connections: int = 2,
    drain_s: float = 10.0,
) -> StepResult:
    """Offer ``rate`` requests/s for ``duration_s``; URLs cycle through ``urls``."""
    offsets = arrival_times(rate, duration_s, rng)
    chosen = [urls[i % len(urls)] for i in range(len(offsets))]
    return asyncio.run(
        _run_step(host, port, chosen, offsets, rate, duration_s, connections, drain_s)
    )


def fetch(host: str, port: int, url: str, timeout: float = 5.0) -> Tuple[int, bytes]:
    """One blocking GET (the readiness probe)."""

    async def _one() -> Tuple[int, bytes]:
        return await asyncio.wait_for(_fetch(host, port, url), timeout)

    return asyncio.run(_one())


def fetch_all(host: str, port: int, urls: Sequence[str], timeout: float = 10.0) -> List[Tuple[int, bytes]]:
    """GET every URL in turn over one event loop (closed loop, one connection)."""

    async def _all() -> List[Tuple[int, bytes]]:
        answers = []
        for url in urls:
            try:
                answers.append(await asyncio.wait_for(_fetch(host, port, url), timeout))
            except (OSError, ValueError, IndexError, asyncio.TimeoutError):
                answers.append((0, b""))
        return answers

    return asyncio.run(_all())


def body_digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def percentile(values: Sequence[float], share: float) -> Optional[float]:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(-(-share * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(step: StepResult) -> Dict[str, float]:
    latencies = step.latencies_ms()
    lateness = [r.late_s * 1e3 for r in step.responses]
    return {
        "rate": step.rate,
        "requests": len(latencies),
        "p50_ms": percentile(latencies, 0.5),
        "p99_ms": percentile(latencies, 0.99),
        "late_p99_ms": percentile(lateness, 0.99),
        "backlog_at_end": step.backlog_at_end,
        "achieved_rps": len(latencies) / step.duration_s,
    }

"""Load generator: keep-alive HTTP connections on one asyncio loop.

Everything runs on the calling thread's event loop, so the generator uses
one thread however many connections it drives.  Times are
``loop.time()`` readings, which on Linux are ``CLOCK_MONOTONIC`` — the
same clock the server process stamps its epochs and spans with.

* :func:`open_loop` sends each request at its due time (fixed rate) over
  a small set of connections; a request that finds every connection busy
  waits, and its latency counts from the due time, so stalls are charged
  to the server rather than hidden (no coordinated omission).  The
  scheduler's own wake-up delay is recorded as generator lateness.
* :func:`closed_loop` keeps every connection busy back to back.
* :func:`feed` appends AOL lines to the tailed TSV at their due times.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from dataclasses import dataclass

#: Per-request client timeout; a request past it fails.
REQUEST_TIMEOUT = 10.0


@dataclass
class Outcome:
    """One HTTP exchange: request, timestamps, status and raw body."""

    request: object
    due: float
    sent: float
    received: float
    status: int | None
    body: bytes
    ok: bool = False  # set by the run's answer check

    @property
    def latency_from_due(self) -> float:
        return self.received - self.due

    @property
    def latency(self) -> float:
        return self.received - self.sent


class Connection:
    """One HTTP/1.1 keep-alive connection (reconnects after an error)."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader = None
        self._writer = None

    async def _exchange(self, target: str) -> tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        self._writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {self._host}\r\n\r\n".encode()
        )
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body

    async def get(self, target: str) -> tuple[int | None, bytes]:
        """``(status, body)``; ``(None, reason)`` on timeout or error."""
        try:
            return await asyncio.wait_for(
                self._exchange(target), REQUEST_TIMEOUT
            )
        except (asyncio.TimeoutError, OSError, ValueError, IndexError,
                asyncio.IncompleteReadError) as exc:
            self.close()
            return None, repr(exc).encode()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


async def open_loop(
    connections: list[Connection],
    requests: list,
    start: float,
    rate: float,
) -> tuple[list[Outcome], list[float]]:
    """Send ``requests[i]`` at ``start + i / rate``; outcomes + lateness."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    lateness: list[float] = []

    async def schedule() -> None:
        for index, request in enumerate(requests):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, loop.time() - due))
            queue.put_nowait((request, due))
        for _ in connections:
            queue.put_nowait(None)

    async def send(connection: Connection) -> None:
        while (item := await queue.get()) is not None:
            request, due = item
            sent = loop.time()
            status, body = await connection.get(request.target)
            outcomes.append(
                Outcome(request, due, sent, loop.time(), status, body)
            )

    await asyncio.gather(schedule(), *(send(c) for c in connections))
    return outcomes, lateness


async def closed_loop(
    connections: list[Connection],
    sequences: list[list],
    end: float,
) -> list[Outcome]:
    """Back-to-back requests on every connection until *end*."""
    loop = asyncio.get_running_loop()
    outcomes: list[Outcome] = []

    async def run(connection: Connection, sequence: list) -> None:
        for request in itertools.cycle(sequence):
            sent = loop.time()
            if sent >= end:
                return
            status, body = await connection.get(request.target)
            outcomes.append(
                Outcome(request, sent, sent, loop.time(), status, body)
            )

    await asyncio.gather(
        *(run(c, s) for c, s in zip(connections, sequences))
    )
    return outcomes


async def feed(path: str, lines: list[str], dues: list[float]) -> list[float]:
    """Append ``lines[i]`` to *path* at ``dues[i]``; return lateness."""
    loop = asyncio.get_running_loop()
    lateness: list[float] = []
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        written = 0
        while written < len(lines):
            delay = dues[written] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            ready = written
            while ready < len(lines) and dues[ready] <= now:
                ready += 1
            os.write(fd, "".join(lines[written:ready]).encode("utf-8"))
            lateness.extend(now - dues[i] for i in range(written, ready))
            written = ready
    finally:
        os.close(fd)
    return lateness

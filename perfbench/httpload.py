"""Open-loop HTTP reads against the daemon's control plane.

Requests are due on a fixed schedule (``rate`` per second) whether or
not the daemon keeps up: the poller runs on the daemon's own event
loop, one connection at a time, so a stall in the loop (a checkpoint,
a refit) delays every request due during it.  Each request is timed
from its *due* time, which counts that wait, and the poller records
how late it sent each request.  Bodies are kept and parsed after the
run, so parsing does not steal time from the loop being measured.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass


@dataclass
class Sample:
    """One request: what was asked, when, and what came back."""

    path: str
    late: float  # seconds between due time and send
    latency: float  # seconds between due time and the full response
    status: int | None  # None when the connection failed
    body: bytes = b""

    @property
    def endpoint(self) -> str:
        return self.path.split("?")[0].strip("/") or "root"


def parse_body(sample: Sample) -> bool:
    """True when ``sample`` is a 2xx whose body parses for its format."""
    from repro.obs.prometheus import parse_exposition

    if sample.status is None or not 200 <= sample.status < 300:
        return False
    try:
        text = sample.body.decode("utf-8")
        if "format=prometheus" in sample.path:
            parse_exposition(text)
        else:
            json.loads(text)
    except ValueError:  # UnicodeDecodeError and JSONDecodeError included
        return False
    return True


async def http_get(port: int, path: str) -> tuple[int | None, bytes]:
    """One ``GET`` on a fresh connection; ``(None, b"")`` if it failed."""
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return None, b""
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        raw = await reader.read()
    except OSError:
        return None, b""
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return None, b""
    return status, body


class OpenLoopPoller:
    """Cycles ``paths`` at ``rate`` requests per second."""

    def __init__(self, rate: float, paths) -> None:
        self.period = 1.0 / rate
        self.paths = tuple(paths)
        self.samples: list[Sample] = []

    async def run(self, port: int, keep_going) -> None:
        """Send on schedule until ``keep_going()`` turns false."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        sent = 0
        while keep_going():
            due = start + sent * self.period
            wait = due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
                if not keep_going():
                    break
            path = self.paths[sent % len(self.paths)]
            sent += 1
            send = loop.time()
            status, body = await http_get(port, path)
            done = loop.time()
            self.samples.append(Sample(path, send - due, done - due, status, body))

    def verify(self) -> int:
        """Parse every body; returns the number of failed requests.

        Bodies are dropped once parsed, keeping memory flat across a
        long run.
        """
        failed = 0
        for sample in self.samples:
            failed += not parse_body(sample)
            sample.body = b""
        return failed

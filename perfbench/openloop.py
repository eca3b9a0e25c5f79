"""HTTP load legs: a seeded open-loop schedule, or a closed loop.

Open loop: the schedule (arrival offsets of a Poisson process) is fixed
from the seed before the leg starts.  Each request is timed from its due
time, not from when a client thread got round to sending it, so a stall
is charged to every request it delays; how late the sender ran is
recorded as lateness.  A leg whose lateness keeps growing is a backlog:
the offered rate exceeds what the server sustains.

Closed loop (offset ``None``): each connection sends its next request as
soon as the previous one is answered, and a request is timed from when
it was sent.  With one connection that is the unloaded latency; with
one per core, the completion rate is the server's saturation throughput.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from statistics import median

import numpy as np


#: Client threads, each with one keep-alive connection (one per core).
CLIENT_THREADS = 2


def poisson_arrivals(rate: float, count: int, rng: np.random.Generator) -> list[float]:
    """Offsets of the first ``count`` arrivals of a Poisson process at ``rate``."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()


@dataclass
class Sample:
    """One request of a leg: its times on the shared monotonic clock."""

    tag: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def run_leg(port: int, requests: list[tuple[str, float | None, bytes]], *,
            connections: int = CLIENT_THREADS, timeout: float = 60.0) -> list[Sample]:
    """Send ``(tag, offset, body)`` requests on schedule over ``connections``
    client threads; returns the samples."""
    start = time.perf_counter() + 0.05
    samples = [Sample(tag, start + (offset or 0.0)) for tag, offset, _ in requests]
    closed = [offset is None for _, offset, _ in requests]
    bodies = [body for _, _, body in requests]
    lock = threading.Lock()
    state = {"next": 0}

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = state["next"]
                    if index >= len(samples):
                        return
                    state["next"] = index + 1
                sample = samples[index]
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                if closed[index]:
                    sample.due = sample.sent
                try:
                    conn.request("POST", "/match", body=bodies[index],
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    sample.body = response.read()
                    sample.status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    sample.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                sample.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout + len(samples))
        if thread.is_alive():
            raise RuntimeError("open-loop client thread did not finish")
    return samples


def backlogged(samples: list[Sample], tolerance_s: float = 0.05) -> bool:
    """Whether lateness grew over the leg: the median lateness of its last
    fifth exceeds that of its first fifth by more than ``tolerance_s``."""
    if len(samples) < 10:
        return False
    ordered = sorted(samples, key=lambda s: s.due)
    fifth = len(ordered) // 5
    head = median([s.lateness for s in ordered[:fifth]])
    tail = median([s.lateness for s in ordered[-fifth:]])
    return tail > head + tolerance_s

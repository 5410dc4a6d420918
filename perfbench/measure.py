"""Arithmetic shared by the benchmark and its steadiness check, and the
reference kernel whose duration is the unit of the benchmark's timings."""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque
from contextlib import contextmanager

REF_HZ = 20  # reference samples per second while a loop is measured
REF_WINDOW_S = 0.5  # reference samples this close to an operation set its unit


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def throughput(count: float, seconds: float) -> float:
    """Work items per second; the total time must be positive."""
    if seconds <= 0:
        raise ValueError("throughput needs a positive total time")
    return count / seconds


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _grid(side: int) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {u: [] for u in range(side * side)}
    for u in adj:
        r, c = divmod(u, side)
        if r + 1 < side:
            adj[u].append(u + side)
            adj[u + side].append(u)
        if c + 1 < side:
            adj[u].append(u + 1)
            adj[u + 1].append(u)
    return adj


GRID = _grid(12)


def reference_kernel() -> int:
    """Fixed pure-Python work that never touches distqc: breadth-first
    searches from six nodes of a 12 x 12 grid, the dict, list and deque
    traffic of distqc's own layers.  About half a millisecond."""
    total = 0
    for source in range(0, len(GRID), 24):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in GRID[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    return total


class ReferenceSampler:
    """Runs the reference kernel REF_HZ times a second from an interval
    timer, inside whatever the process is doing: once to warm the cache,
    then once timed.

    A shared machine's speed drifts by up to 2x within seconds and for
    minutes on end.  The kernel slows with it, so an operation's duration
    divided by the kernel's duration during that operation stays put.  The
    kernel's own time is taken out of the operation's (``net_seconds``)."""

    def __init__(self, hz: float = REF_HZ, clock=time.perf_counter):
        self.interval = 1.0 / hz
        self.clock = clock
        # (start, seconds of the timed kernel run, seconds taken in all)
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = self.clock()
        reference_kernel()  # untimed: brings the kernel's data back into cache
        timed_from = self.clock()
        reference_kernel()
        end = self.clock()
        self.samples.append((start, end - timed_from, end - start))

    def __enter__(self) -> "ReferenceSampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    @contextmanager
    def paused(self):
        """Stop sampling for a while, e.g. while a child process runs."""
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            if left:
                signal.setitimer(signal.ITIMER_REAL, left, self.interval)


def net_seconds(samples: list[tuple[float, float, float]], start: float, seconds: float) -> float:
    """An operation's duration less the reference runs that interrupted it."""
    return seconds - sum(taken for t, _, taken in samples if start <= t < start + seconds)


def reference_near(samples: list[tuple[float, float, float]], start: float, end: float,
                   window: float = REF_WINDOW_S) -> float:
    """Median timed reference duration over the samples taken during
    [start, end] or within ``window`` seconds of it; the nearest sample's if
    there is none."""
    if not samples:
        raise ValueError("no reference samples")
    near = [d for t, d, _ in samples if start - window <= t <= end + window]
    if near:
        return statistics.median(near)
    return min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]

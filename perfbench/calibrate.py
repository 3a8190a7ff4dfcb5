"""Machine-speed probe for scaling host times to the reference machine.

The benchmark runs on shared virtual machines whose speed changes by
tens of percent, both in phases of a few seconds and over minutes; no
run length averages that out.  A run therefore times this fixed,
program-independent Python workload (an event-loop-like mix of heap
operations, generator resumes, dict updates and small objects, like the
simulator's) every 0.3 s of its timed passes, from a SIGALRM
handler, so the probes sample the machine's speed uniformly over the
timed work; the probe time itself is subtracted from pass and cell
times.  End-to-end times are reported as
``raw * REFERENCE_S / mean(probes)``: host seconds on the reference
machine.  The raw times are kept in the run's record.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

#: probe time on the reference machine (2-vCPU x86_64 VM, Python 3.11)
REFERENCE_S = 0.025


class _Event:
    __slots__ = ("t", "tag")

    def __init__(self, t, tag):
        self.t = t
        self.tag = tag


def _process(n):
    total = 0
    for i in range(n):
        got = yield i
        total += got or 0
    return total


def _work() -> None:
    queue, seq, sums = [], 0, {}
    procs = [_process(400) for _ in range(50)]
    for p in procs:
        next(p)
    for k in range(20000):
        seq += 1
        heapq.heappush(queue, (k % 97 * 1.5, seq, _Event(k, k & 7)))
        if len(queue) > 64:
            t, _, ev = heapq.heappop(queue)
            sums[ev.tag] = sums.get(ev.tag, 0.0) + t
            i = k % 50
            try:
                procs[i].send(ev.t)
            except StopIteration:
                procs[i] = _process(400)
                next(procs[i])


def probe() -> float:
    """Seconds of one probe loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Sampler:
    """While active, probes every ``interval`` wall seconds (SIGALRM).

    ``probe_s`` is the host time spent inside the handler, which callers
    subtract from what they timed."""

    def __init__(self, interval: float = 0.3):
        self.interval = interval
        self.probes: List[float] = []
        self.probe_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

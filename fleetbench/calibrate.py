"""A fixed CPU workload that measures how fast the host runs right now.

Shared hosts slow down for minutes at a time (neighbours contending for
caches, memory bandwidth and clock), and such a slowdown moves every
timing of the simulator alike.  Each measured process (``child.py``)
times this workload before it loads any of the simulator and again after
the run, and ``run.py`` scales that process's host times by the median of
those times against ``REFERENCE_S``, so a slowdown of the host cancels
while a change to the simulator does not: nothing here depends on the
simulator.

The workload does the kinds of work the simulator does: a heap-ordered
event loop over thousands of small objects, attribute reads and writes,
method calls, dataclass equality in list membership tests, dict updates
and small numpy reductions, over a working set of a few megabytes.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: CPU seconds one :func:`calibrate` call takes on the host the benchmark
#: was written on (an idle 2-vCPU Xeon VM): the speed that scaled host
#: times are expressed at.
REFERENCE_S = 0.18

#: Calls per :func:`sample`.  One call now and then takes 10% longer than
#: its neighbours on an idle host; the median over both ends' samples
#: leaves such a call out.
SAMPLES = 2

JOBS = 15000
SERVERS = 16


@dataclass
class Job:
    ident: int
    arrival: float
    size: int
    done: int = 0
    server: int = -1


class Server:
    __slots__ = ("index", "active", "served", "load")

    def __init__(self, index: int) -> None:
        self.index = index
        self.active: list[Job] = []
        self.served = 0
        self.load = np.zeros(8)

    def admit(self, job: Job) -> None:
        job.server = self.index
        self.active.append(job)

    def step(self, job: Job) -> bool:
        job.done += 1
        self.load[job.done % 8] += job.size
        if job.done < job.size:
            return False
        if job in self.active:
            self.active.remove(job)
        self.served += 1
        return True


def workload() -> float:
    """Runs the fixed workload once; returns a checksum of its outcome."""
    rng = random.Random(7)
    jobs = [Job(i, rng.random() * 100.0, rng.randint(1, 8)) for i in range(JOBS)]
    servers = [Server(i) for i in range(SERVERS)]
    counts: dict[int, int] = {}
    events = [(job.arrival, job.ident) for job in jobs]
    heapq.heapify(events)
    while events:
        now, ident = heapq.heappop(events)
        job = jobs[ident]
        if job.server < 0:
            target = min(servers, key=lambda s: (len(s.active), s.index))
            target.admit(job)
        server = servers[job.server]
        if not server.step(job):
            heapq.heappush(events, (now + 0.5 + job.size * 0.01, ident))
        counts[job.server] = counts.get(job.server, 0) + 1
    total = sum(float(s.load.sum()) for s in servers)
    return total + sum(s.served for s in servers) + len(counts)


def calibrate() -> float:
    """CPU seconds of one :func:`workload` call, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        workload()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def sample() -> list[float]:
    """CPU seconds of ``SAMPLES`` back-to-back :func:`calibrate` calls."""
    return [calibrate() for _ in range(SAMPLES)]


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference host these samples ran."""
    return statistics.median(samples) / REFERENCE_S


if __name__ == "__main__":
    print(f"{calibrate():.4f} s")

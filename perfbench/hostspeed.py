"""Host-speed sampling, so that timings from a drifting host compare.

On a shared virtual machine a vCPU can run interpreted code up to twice as
slowly for seconds at a time, as other tenants load the host; each vCPU
drifts on its own, and process CPU time drifts with wall time.
So while an operation runs, a profiling timer interrupts every process of
it (the benchmark process and any worker it forks) after each PERIOD_S of
CPU time and times a fixed pure-Python kernel in thread CPU time, which a
preempted kernel does not inflate.  The mean kernel time over all samples
is the operation's host speed, weighted by CPU time, and a duration is
reported at reference speed: host seconds times ``REFERENCE_S / mean``,
what it would take on a host that runs the kernel in ``REFERENCE_S``.

The kernel is part of the benchmark, not of ncsim, so a change to the
program cannot move it.  It uses its own random generator and no global
state, so sampling perturbs no simulated draw.  Sampling costs about 2% of
the CPU time it measures.
"""
from __future__ import annotations

import glob
import heapq
import math
import os
import random
import signal
import time

PERIOD_S = 0.05
# Kernel CPU seconds on a 2-vCPU Xeon VM (2.0 GHz) when its vCPU is not
# slowed, so that normalized times are of the order of real ones there.
REFERENCE_S = 0.00065
_KERNEL_N = 1000
_CHUNKS = 4


def _kernel(n: int) -> float:
    rng = random.Random(1)
    heap, table, acc = [], {}, 0.0
    for i in range(n):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        table[i & 255] = table.get(i & 255, 0.0) + math.sqrt(x)
        acc += x * x if x < 0.5 else -x
    return acc


def kernel_seconds() -> float:
    """Thread CPU seconds of the kernel, as the fastest of a few slices
    times their number: a slice that a context switch or a cold cache hit
    is dropped, while a slowed vCPU slows every slice."""
    best = math.inf
    for _ in range(_CHUNKS):
        t0 = time.thread_time()
        _kernel(_KERNEL_N // _CHUNKS)
        best = min(best, time.thread_time() - t0)
    return best * _CHUNKS


class Sampler:
    """Samples host speed in this process and in the processes it forks
    while :meth:`start` .. :meth:`stop` is open.  Forked workers append
    their samples to files in ``spool``, which :meth:`stop` collects."""

    def __init__(self, spool: str):
        self.spool = spool
        self.samples: list[float] = []
        self._active = False
        self._in_child = False
        self._busy = False
        os.makedirs(spool, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    def _sample(self, signum, frame):
        if not self._active or self._busy:
            return
        self._busy = True
        try:
            dt = kernel_seconds()
            if self._in_child:
                path = os.path.join(self.spool, f"worker.{os.getpid()}")
                with open(path, "a") as fh:
                    fh.write(f"{dt!r}\n")
            else:
                self.samples.append(dt)
        finally:
            self._busy = False

    def _after_fork(self):
        # Interval timers are not inherited across fork; re-arm them.
        if self._active:
            self._in_child = True
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def start(self):
        for path in glob.glob(os.path.join(self.spool, "worker.*")):
            os.remove(path)
        self.samples = [kernel_seconds()]
        self._active = True
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Disarm the timer; return the factor that turns the host seconds
        measured since :meth:`start` into seconds at reference speed."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._active = False
        samples = self.samples + [kernel_seconds()]
        for path in glob.glob(os.path.join(self.spool, "worker.*")):
            with open(path) as fh:
                samples += [float(line) for line in fh if line.strip()]
            os.remove(path)
        return REFERENCE_S / math.fsum(samples) * len(samples)

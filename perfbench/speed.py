"""The CPU speed the benchmark's children see, and times scaled to it.

On a shared host a vCPU's speed changes from second to second (a fixed
job took 31-33 ms or 42-45 ms on one vCPU, by turns, and the two vCPUs
of a 2-core guest changed state independently), so raw wall times of
the same work spread by 15-25% between runs. A `SpeedProbe` runs one
sampler thread pinned to each CPU the children are pinned to. Every
INTERVAL_S it times a fixed reference job by the thread's own CPU
clock, so the sample reads how fast that CPU executes right now, not
how long the thread waited for it. A child's wall time multiplied by
REF_JOB_S over the mean sample taken while the child ran is the time
the child would have taken on CPUs that run the job in REF_JOB_S.

The sampler shares each CPU with the children; it takes about 2% of
it, the same on every run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.1
# The reference job's usual time on one vCPU of the 2-core shared host
# the bounds were measured on (Python 3.11, numpy 2.4); it sets the
# scale of scaled times, not their spread.
REF_JOB_S = 0.002

_rng = np.random.default_rng(0)
_TEXT = b" ".join(str(int(v)).encode() for v in _rng.integers(0, 256, 300))
_ROWS = _rng.random((64, 441))
_QUERY = _rng.random(441)


def reference_job() -> float:
    """Fixed work of the kinds nblgc does: byte-at-a-time ASCII integer
    scanning in Python (the P2 reader) and small numpy reductions driven
    from a Python loop (KNN distances, SMO steps)."""
    data, n, i, total = _TEXT, len(_TEXT), 0, 0
    while i < n:
        while i < n and data[i] == 32:
            i += 1
        j = i
        while j < n and data[j] != 32:
            j += 1
        total += int(data[i:j])
        i = j
    acc = float(total)
    for _ in range(12):
        acc += float(np.log1p(np.abs(_ROWS - _QUERY)).sum(axis=1).min())
    return acc


def child_cpus(workers: int) -> set[int]:
    """The first `workers` CPUs this process may run on."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[: max(1, workers)])


class SpeedProbe:
    """Sampler threads, one pinned to each of `cpus`, inside a `with` block.

    The thread that enters the block is pinned to `cpus` until it leaves,
    so every child it starts (and every pool process that child starts)
    inherits them.
    """

    def __init__(self, cpus: set[int]):
        self._cpus = sorted(cpus)
        self._samples: list[tuple[float, float]] = []  # (perf_counter at end, job CPU seconds)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._saved: set[int] = set()

    def __enter__(self) -> SpeedProbe:
        self._saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self._cpus)
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True) for cpu in self._cpus]
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        os.sched_setaffinity(0, self._saved)

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            reference_job()
            self._samples.append((time.perf_counter(), time.thread_time() - start))

    def job_s(self, start: float, end: float) -> float:
        """Mean reference job time of the samples that ended in [start, end];
        of every sample so far when the window is shorter than an interval."""
        samples = list(self._samples)
        inside = [s for t, s in samples if start <= t <= end] or [s for _, s in samples]
        return statistics.fmean(inside)

    def scaled(self, wall: float, start: float, end: float) -> float:
        """`wall`, measured over [start, end], at the reference speed."""
        return wall * REF_JOB_S / self.job_s(start, end)

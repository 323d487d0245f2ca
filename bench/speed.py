"""Timed work, scaled by the host's speed measured while the work runs.

On a shared host the same code runs at two speeds that switch within a
fraction of a second: a fixed loop takes either about 38 ms or 60-75 ms, and a
build's time depends on how long it spends in the slow state.  `timed()`
therefore samples the speed during the work.  A SIGALRM timer interrupts the
work every INTERVAL_S and times a short fixed loop of Fraction and dict
arithmetic (the kind of work the exact kernel does, sharing no code with it).
Each slice of the work is scaled by its sample's speed relative to a host that
runs the loop in SAMPLE_REF_S:

    norm_s = work_s * mean(SAMPLE_REF_S / sample)

where work_s is the wall time less the time spent in the samples.  The
samples cost about 3-5% of the work.  `work_clock()` stops while a sample
runs, so spans timed with it leave the samples out too.  The timer needs the
main thread.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
SAMPLE_ITERS = 400
SAMPLE_REF_S = 0.0015

_sampled_s = 0.0  # time spent in samples so far in this process


def work_clock() -> float:
    """time.perf_counter() less the time spent in speed samples."""
    return time.perf_counter() - _sampled_s


def sample_s() -> float:
    """Time one pass of the fixed loop."""
    global _sampled_s
    t0 = time.perf_counter()
    acc: dict[int, Fraction] = {}
    third = Fraction(1, 3)
    for i in range(SAMPLE_ITERS):
        k = (i * 7919) % 257
        acc[k] = acc.get(k, 0) + Fraction(i % 13 + 1, i % 11 + 1) * third
    spent = time.perf_counter() - t0
    _sampled_s += spent
    return spent


@contextlib.contextmanager
def timed(interval: float = INTERVAL_S):
    """Yield a dict that holds, once the block has ended without an error,
    work_s, norm_s, scale (norm_s / work_s), samples (their count), sample_s
    (their mean) and sampled_s (their sum).  One sample is also taken just
    before and just after the block, so a block shorter than the interval
    still has two."""
    out: dict = {}
    samples = [sample_s()]
    old = signal.signal(signal.SIGALRM, lambda *_: samples.append(sample_s()))
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    t0 = time.perf_counter()
    try:
        yield out
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    samples.append(sample_s())
    scale = statistics.fmean(SAMPLE_REF_S / s for s in samples)
    work = wall - sum(samples[1:-1])
    out.update(work_s=work, norm_s=work * scale, scale=scale, samples=len(samples),
               sample_s=statistics.fmean(samples), sampled_s=sum(samples))

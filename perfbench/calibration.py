"""Machine-speed calibration, so that timings compare across a noisy host.

On a shared machine the same op can take 60% longer for tens of seconds
while neighbours are busy, in CPU time as much as in wall time.  A fixed
kernel that uses none of the package's code, but the same kinds of work
(FFTs, parity queries on small index arrays, dict and list churn), slows
down by nearly the same factor.  The benchmark runs the kernel between ops and scales
every op time by ``NOMINAL_S / <kernel time on both sides of the op>``:
reported times are those of an unloaded machine on which the kernel takes
``NOMINAL_S``.  Raw times are printed next to them.

A change to the package leaves the kernel alone, so a faster op shows as a
smaller scaled time.  Changing the kernel or ``NOMINAL_S`` changes the unit
of every timing and starts a new baseline.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median kernel time on an unloaded core of the machine the benchmark was
# defined on (2-CPU x86-64 sandbox, Python 3.11, numpy 2.4)
NOMINAL_S = 2.3e-4

# share of each op's time spent re-measuring the kernel after it
SHARE = 0.05

_rng = np.random.default_rng(0)
_SIGNAL = _rng.standard_normal(1024) + 1j * _rng.standard_normal(1024)
_BITS = _rng.integers(0, 2, 2048, dtype=np.uint8)
_SUBSETS = [_rng.permutation(2048)[:k] for k in (8, 16, 32, 64)]


def _kernel() -> float:
    """FFT work, small-array parity queries and dict/list churn, as in a round."""
    total = 0.0
    for _ in range(3):
        total += float(np.abs(np.fft.fft(_SIGNAL)).sum())
    for j in range(60):
        total += int(_BITS[_SUBSETS[j % 4]].sum() & 1)
    buckets: dict[int, list[int]] = {}
    for j in range(400):
        buckets.setdefault(j % 37, []).append(j)
    total += sum(len(v) for v in buckets.values())
    return total + sum(sorted(range(200), key=lambda x: -x)[:3])


def sample(seconds: float) -> list[float]:
    """Kernel times, at least one, until ``seconds`` have been spent.

    The first call only brings the kernel back into cache after an op and
    is not kept, so the samples track machine speed rather than what the
    op left in cache.
    """
    _kernel()
    samples: list[float] = []
    while not samples or sum(samples) < seconds:
        start = perf_counter()
        _kernel()
        samples.append(perf_counter() - start)
    return samples


def op_factors(samples: list[list[float]]) -> list[float]:
    """Scale factor of every op; ``samples[i]`` are the kernel times measured
    right after op ``i``, and so right before op ``i + 1``.

    The machine's speed flips between levels from one op to the next.  The
    mean of the kernel medians just before and just after an op tracks the
    speed of an op that straddles a flip; a median pooled over a window of
    ops picks one level instead, and those ops then decided the tail.
    """
    medians = [statistics.median(s) for s in samples]
    before = medians[:1] + medians[:-1]
    return [NOMINAL_S / ((b + a) / 2) for b, a in zip(before, medians)]

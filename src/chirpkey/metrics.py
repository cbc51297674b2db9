"""Evaluation metrics: disagreement ratio, generation rate, run lengths."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .quantizer import BitKey, as_bits


@dataclass(frozen=True)
class MetricsReport:
    skdr: float
    skgr_bits_per_probe: float
    l0: int
    l1: int
    key_bits: int


def skdr(key_a: BitKey, key_g: BitKey) -> float:
    """Secret key disagreement ratio: Hamming distance / length."""
    if len(key_a) == 0 or len(key_a) != len(key_g):
        raise ParameterError("keys must be non-empty and of equal length")
    return float(np.mean(key_a.bits != key_g.bits))


def longest_runs(rows: np.ndarray, value: int) -> np.ndarray:
    """Longest run of ``value`` in each row of a 2-d bit array (0 if none)."""
    width = rows.shape[1]
    cols = np.arange(width, dtype=np.int32 if width < 2**31 else np.int64)
    # column of the last other value at or before each column (-1 if none),
    # as (col + 1) * miss - 1, then the run length ending at each column, in
    # one table
    last_miss = np.multiply(rows != value, cols + 1, dtype=cols.dtype)
    last_miss -= 1
    np.maximum.accumulate(last_miss, axis=1, out=last_miss)
    return np.subtract(cols, last_miss, out=last_miss).max(axis=1)


def max_run_lengths(bits) -> tuple[int, int]:
    """Longest run of consecutive 0s and of consecutive 1s."""
    b = as_bits(bits)
    if b.size == 0:
        raise ParameterError("bit sequence must be non-empty")
    return int(longest_runs(b[None], 0)[0]), int(longest_runs(b[None], 1)[0])


def report(key_a: BitKey, key_g: BitKey, probes: int = 1) -> MetricsReport:
    """Metrics of one probing round, computed on the initial keys."""
    if probes < 1:
        raise ParameterError("probes must be >= 1")
    l0, l1 = max_run_lengths(key_g)
    return MetricsReport(
        skdr=skdr(key_a, key_g),
        skgr_bits_per_probe=len(key_g) / probes,
        l0=l0,
        l1=l1,
        key_bits=len(key_g),
    )

"""Shuffle-preprocessed adaptive dual-threshold quantization.

Both parties partition their CFR amplitude vectors into blocks of length m,
compute per-block thresholds mean +/- alpha * (population standard
deviation), censor values strictly between their own thresholds through a
two-message index exchange, and quantize the surviving positions to bits.
An optional shared-seed shuffle decorrelates adjacent amplitudes before
blocking.  An eavesdropper runs the same public steps on its own amplitudes
(``listener_key``): the shared shuffle, its own thresholds, and the
overheard retained-index list.  Each retained value gives one key bit.

Amplitudes are plain float64 arrays, thresholds a (2, blocks) array (row 0
q_plus, row 1 q_minus).  ``block_thresholds`` and ``quantize`` reject
amplitudes that are not 1-d, non-empty, finite and non-negative; every
party path goes through both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class QuantizerConfig:
    """Quantization knobs.

    Each block's thresholds are its mean +/- ``alpha`` times its population
    standard deviation.  Values exactly equal to a threshold are kept and
    quantized by the non-strict comparisons; only values strictly inside
    the gap are censored.
    """

    alpha: float = 0.5
    block_size: int = 64
    shuffle_enabled: bool = True
    shuffle_seed: int = 0
    encoding: ClassVar[str] = "plain"  # not a field, so no config can set it

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < np.inf):
            raise ParameterError("alpha must be finite and >= 0")
        if self.block_size < 2:
            raise ParameterError("block_size must be >= 2")


def as_bits(bits) -> np.ndarray:
    """The 0/1 values of a 1-d sequence or BitKey as a uint8 array."""
    b = np.asarray(getattr(bits, "bits", bits))
    if b.ndim != 1:
        raise ParameterError("bits must be one-dimensional")
    # other dtypes are checked before the cast, which would truncate 0.9 to 0
    ok = (b.size == 0 or b.max() <= 1) if b.dtype == np.uint8 else np.all((b == 0) | (b == 1))
    if not ok:
        raise ParameterError("bits must be 0 or 1")
    return b.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class BitKey:
    """Ordered bit sequence at one pipeline stage (initial/reconciled)."""

    bits: np.ndarray = field(repr=False)
    stage: str = "initial"

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", as_bits(self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(int(b)) for b in self.bits)


@lru_cache(maxsize=4)
def _permutation(seed: int, n: int) -> np.ndarray:
    """``default_rng(seed).permutation(n)``, cached and read-only."""
    perm = np.random.default_rng(seed).permutation(n)
    perm.setflags(write=False)
    return perm


def shuffle(amps: np.ndarray, seed: int) -> np.ndarray:
    """Apply the seed-determined uniform random permutation (the shared rule).

    The permutation is drawn once per (seed, length) and cached, so A, G
    and the eavesdropper of one round share a single draw.  The values are
    not checked here; ``block_thresholds`` and ``quantize`` check them.
    """
    return amps[_permutation(seed, len(amps))]


def _checked(amps: np.ndarray) -> np.ndarray:
    """``amps`` as float64, rejected unless 1-d, non-empty, finite and >= 0."""
    v = np.asarray(amps, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ParameterError("amplitudes must be a non-empty 1-d array")
    if not np.all((v >= 0) & (v < np.inf)):  # NaN fails both comparisons
        raise ParameterError("amplitudes must be finite and non-negative")
    return v


def _row_thresholds(rows: np.ndarray, alpha: float) -> np.ndarray:
    """(2, len(rows)) array: q_plus and q_minus of each row, mean +/- alpha * std."""
    center = rows.mean(axis=1)
    width = rows.std(axis=1)
    # exactly zero spread: keep q+ == q- == c so nothing is censored
    constant = np.all(rows == rows[:, :1], axis=1)
    return np.where(constant, rows[:, 0], [center + alpha * width, center - alpha * width])


def block_thresholds(amps: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """(2, blocks) thresholds, q_plus in row 0 and q_minus in row 1, of each
    block of m values; a trailing remainder is one more block.  Raises
    ParameterError for amplitudes not 1-d, non-empty, finite and >= 0."""
    v = _checked(amps)
    m = config.block_size
    full = len(v) - len(v) % m
    rows = [v[:full].reshape(-1, m)]
    if full < len(v):
        rows.append(v[None, full:])
    return np.concatenate([_row_thresholds(r, config.alpha) for r in rows], axis=1)


def _censored_mask(v: np.ndarray, thresholds: np.ndarray, m: int) -> np.ndarray:
    """True where a value falls strictly between its own block's thresholds.

    A trailing block of length 1 is censored outright (no usable spread).
    """
    block_of = np.arange(len(v)) // m
    mask = (v > thresholds[1, block_of]) & (v < thresholds[0, block_of])
    if len(v) % m == 1:
        mask[-1] = True
    return mask


def censoring_exchange(
    amps_a: np.ndarray,
    amps_g: np.ndarray,
    config: QuantizerConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-message index-censoring exchange.

    Each party independently computes per-block thresholds and the set of
    its own positions strictly inside the gap.  The first message carries
    A's censored list to G; G unions it with its own and sends the union
    back; both retain the complement.  Returns the shared retained
    positions, a strictly increasing intp array, plus each party's
    per-block thresholds.
    """
    th_a = block_thresholds(amps_a, config)
    th_g = block_thresholds(amps_g, config)
    if len(amps_a) != len(amps_g):
        raise ParameterError("amplitude vectors must have equal length")
    m = config.block_size
    censored = _censored_mask(amps_a, th_a, m) | _censored_mask(amps_g, th_g, m)
    return np.flatnonzero(~censored), th_a, th_g


def quantize(
    amps: np.ndarray,
    retained: np.ndarray,
    thresholds: np.ndarray,
    encoding: str,
    block_size: int,
) -> BitKey:
    """Quantize the retained amplitude values against per-block thresholds.

    ``thresholds`` is ``block_thresholds``' (2, ceil(n/m)) array and
    ``block_size`` the m it was computed with, and ``retained`` the
    positions to quantize.  Raises ParameterError for amplitudes
    ``block_thresholds`` rejects, for thresholds of another shape or with
    q_minus above q_plus, and for positions that are not 1-d, strictly
    increasing and within the amplitudes.  Each value maps to the nearer
    threshold, q_plus to 1 and q_minus to 0, ties to 1.  A value at or past
    a threshold is nearer to it, so this also covers a retained value
    inside this party's gap (the retained set is shared but thresholds are
    not).  ``encoding`` must be "plain" (``QuantizerConfig.encoding``); the
    parameter stays only for perfbench's traced round and goes with ROADMAP
    item 3 step 1b.
    """
    if encoding != QuantizerConfig.encoding:
        raise ParameterError(f"encoding must be {QuantizerConfig.encoding!r}, got {encoding!r}")
    amps = _checked(amps)
    th = np.asarray(thresholds, dtype=np.float64)
    expected = -(-len(amps) // block_size)  # ceil(n / m)
    if th.shape != (2, expected) or np.any(th[1] > th[0]):
        raise ParameterError(f"thresholds must be a (2, {expected}) array, q_minus <= q_plus")
    idx = np.asarray(retained, dtype=np.intp)
    if idx.ndim != 1 or idx.size and not (
            0 <= idx[0] and idx[-1] < len(amps) and np.all(idx[1:] > idx[:-1])):
        raise ParameterError(
            f"retained positions must be strictly increasing, 1-d and in [0, {len(amps)})")
    v = amps[idx]
    block_of = idx // block_size
    qp, qm = th[0, block_of], th[1, block_of]
    return BitKey(((qp - v) <= (v - qm)).astype(np.uint8), "initial")


def _shuffled(amps: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """The amplitudes under the shared shuffle rule, if the config enables it."""
    return shuffle(amps, config.shuffle_seed) if config.shuffle_enabled else amps


def quantize_pipeline(
    amps_a: np.ndarray,
    amps_g: np.ndarray,
    config: QuantizerConfig,
) -> tuple[BitKey, BitKey, np.ndarray]:
    """Shuffle (optional) -> censoring exchange -> per-party quantization.

    Returns both keys and the shared retained positions, which an
    eavesdropper overhears.
    """
    amps_a, amps_g = _shuffled(amps_a, config), _shuffled(amps_g, config)
    retained, th_a, th_g = censoring_exchange(amps_a, amps_g, config)
    key_a = quantize(amps_a, retained, th_a, config.encoding, config.block_size)
    key_g = quantize(amps_g, retained, th_g, config.encoding, config.block_size)
    return key_a, key_g, retained


def listener_key(amps: np.ndarray, retained: np.ndarray, config: QuantizerConfig) -> BitKey:
    """The key a third party quantizes from its own amplitudes by the public steps:
    the shared shuffle, its own thresholds, and the overheard retained list."""
    amps = _shuffled(amps, config)
    return quantize(amps, retained, block_thresholds(amps, config), config.encoding,
                    config.block_size)

"""Shuffle-preprocessed adaptive dual-threshold quantization.

Both parties partition their CFR amplitude vectors into blocks of length m,
compute per-block thresholds mean +/- alpha * (population standard
deviation), censor values strictly between their own thresholds through a
two-message index exchange, and quantize the surviving positions to bits.
An optional shared-seed shuffle decorrelates adjacent amplitudes before
blocking.  An eavesdropper runs the same public steps on its own amplitudes:
the shared shuffle, its own thresholds, and the overheard retained-index
list.  Each retained value gives one key bit.

``quantize_pipeline`` runs every party in one pass over a (parties, n)
array: row A, row G, then any listener's.  Its per-row reductions are the
1-d steps' (``shuffle``, ``block_thresholds``, ``censoring_exchange``,
``quantize``), so both give the same thresholds and bits.

Amplitudes are plain float64 arrays, thresholds a (2, blocks) array (row 0
q_plus, row 1 q_minus) per party.  Every entry that reads amplitudes
rejects them unless non-empty, finite and non-negative: the 1-d steps a
1-d array, ``quantize_pipeline`` a 2-d one with at least two rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


def shuffle(amps: np.ndarray, seed: int) -> np.ndarray:
    """Apply the seed-determined uniform random permutation (the shared rule)
    along the last axis, ``default_rng(seed).permutation(n)``.

    The values are not checked here; the step after it checks them.
    """
    return amps.take(np.random.default_rng(seed).permutation(amps.shape[-1]), axis=-1)


def _checked(amps: np.ndarray, ndim: int = 1) -> np.ndarray:
    """``amps`` as float64, rejected unless an ndim-d array (rows of one
    length), non-empty, finite and >= 0."""
    try:
        v = np.asarray(amps, dtype=np.float64)
    except ValueError as exc:  # rows of unequal length, or not numbers
        raise ParameterError(
            f"amplitudes must be a {ndim}-d float array, rows of equal length ({exc})") from exc
    if v.ndim != ndim or v.size == 0:
        raise ParameterError(f"amplitudes must be a non-empty {ndim}-d array")
    if not np.all((v >= 0) & (v < np.inf)):  # NaN fails both comparisons
        raise ParameterError("amplitudes must be finite and non-negative")
    return v


def _row_thresholds(blocks: np.ndarray, alpha: float) -> np.ndarray:
    """(..., 2, blocks) array: q_plus and q_minus of each block, a row along
    the last axis of ``blocks``, mean +/- alpha * std."""
    center = blocks.mean(axis=-1)
    width = blocks.std(axis=-1)
    # exactly zero spread: keep q+ == q- == c so nothing is censored
    constant = np.all(blocks == blocks[..., :1], axis=-1)
    bounds = np.stack([center + alpha * width, center - alpha * width], axis=-2)
    return np.where(constant[..., None, :], blocks[..., None, :, 0], bounds)


def _thresholds(v: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """(..., 2, blocks) thresholds of each row of ``v`` along its last axis:
    one pair per block of m values, a trailing remainder one more block."""
    m, n = config.block_size, v.shape[-1]
    full = n - n % m
    blocks = [v[..., :full].reshape(*v.shape[:-1], -1, m)]
    if full < n:
        blocks.append(v[..., None, full:])
    return np.concatenate([_row_thresholds(b, config.alpha) for b in blocks], axis=-1)


def block_thresholds(amps: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    """(2, blocks) thresholds, q_plus in row 0 and q_minus in row 1, of each
    block of m values; a trailing remainder is one more block.  Raises
    ParameterError for amplitudes not 1-d, non-empty, finite and >= 0."""
    return _thresholds(_checked(amps), config)


def _censored_mask(v: np.ndarray, thresholds: np.ndarray, m: int) -> np.ndarray:
    """True where a value falls strictly between its own block's thresholds,
    for each row of ``v`` and its (2, blocks) thresholds.

    A trailing block of length 1 is censored outright (no usable spread).
    """
    n = v.shape[-1]
    th = thresholds.take(np.arange(n) // m, axis=-1)
    mask = (v > th[..., 1, :]) & (v < th[..., 0, :])
    if n % m == 1:
        mask[..., -1] = True
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


def _bits(v: np.ndarray, retained: np.ndarray, thresholds: np.ndarray,
          block_size: int) -> np.ndarray:
    """The uint8 bits of each row of ``v`` at the retained positions: the
    nearer of its block's thresholds, q_plus 1 and q_minus 0, ties to 1."""
    x = v.take(retained, axis=-1)
    th = thresholds.take(retained // block_size, axis=-1)
    return ((th[..., 0, :] - x) <= (x - th[..., 1, :])).astype(np.uint8)


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
    return BitKey(_bits(amps, idx, th, block_size), "initial")


def quantize_pipeline(
    amps: np.ndarray,
    config: QuantizerConfig,
) -> tuple[list[BitKey], np.ndarray]:
    """Shuffle (optional) -> censoring exchange -> per-party quantization,
    for every party in one pass.

    ``amps`` is a (parties, n) array: A's amplitudes in row 0, G's in row
    1, then any listener's, who runs the same public steps on its own row.
    Censoring reads rows 0 and 1 only.  Returns one key per row, in row
    order, and the shared retained positions, which a listener overhears.
    Raises ParameterError for amplitudes that are not a 2-d array of at
    least two equal-length, non-empty rows of finite values >= 0.
    """
    v = _checked(amps, ndim=2)
    if len(v) < 2:
        raise ParameterError("amplitudes need a row for each of A and G")
    if config.shuffle_enabled:
        v = shuffle(v, config.shuffle_seed)
    m = config.block_size
    th = _thresholds(v, config)
    retained = np.flatnonzero(~_censored_mask(v[:2], th[:2], m).any(axis=0))
    return [BitKey(bits, "initial") for bits in _bits(v, retained, th, m)], retained

"""Reciprocal multipath channel model and simulation.

Stands in for a physical indoor link: an L-tap Rayleigh channel with an
exponential power delay profile, a reciprocity knob rho correlating the
forward and reverse tap draws, and an eavesdropper channel drawn
independently (or co-located with the far end when independence is off).
All randomness is seed-deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError


@lru_cache(maxsize=16)
def exponential_profile(num_taps: int, decay_db: float) -> np.ndarray:
    """Per-tap power decaying by ``decay_db`` dB per tap, normalized to 1; cached,
    read-only.  Each power is relative to the largest, the first tap's at a decay
    >= 0 and the last's below, so every term is <= 1, the sum lies in [1, num_taps],
    and no finite decay (the values a ``ChannelModel`` accepts) gives zeros."""
    top = 0 if decay_db >= 0 else num_taps - 1
    with np.errstate(over="ignore"):  # the product overflows near |decay_db| ~ 1e305
        p = 10.0 ** (-decay_db * (np.arange(num_taps) - top) / 10.0)
        p = p / p.sum()
    p.setflags(write=False)
    return p


def _snr_ratio(snr_db: float) -> float | None:
    """Power ratio ``10**(snr_db/10)``, None at +inf dB (noiseless); any other
    value must give a positive finite ratio, which -inf, NaN and |dB| > ~3083 do not."""
    if snr_db == math.inf:
        return None
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ParameterError(
            f"snr_db must be +inf or give a positive finite power ratio, got {snr_db}")
    return ratio


@dataclass(frozen=True)
class ChannelModel:
    num_taps: int = 4
    decay_db: float = 3.0
    reciprocity_rho: float = 0.99
    snr_db: float = 50.0
    eavesdropper_independent: bool = True

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ParameterError("num_taps must be >= 1")
        if not math.isfinite(self.decay_db):
            raise ParameterError(f"decay_db must be finite, got {self.decay_db}")
        if not (0.0 <= self.reciprocity_rho <= 1.0):
            raise ParameterError("reciprocity_rho must be in [0, 1]")
        _snr_ratio(self.snr_db)  # checks it


def _cn_taps(rng: np.random.Generator, pdp: np.ndarray) -> np.ndarray:
    scale = np.sqrt(pdp / 2.0)
    return scale * (rng.standard_normal(len(pdp)) + 1j * rng.standard_normal(len(pdp)))


def sample_channel(model: ChannelModel, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one realization's (forward, reverse, eve) taps: forward and reverse
    jointly Gaussian with correlation rho.

    Per tap l: forward = g1, reverse = rho*g1 + sqrt(1-rho^2)*g2 with g1, g2
    i.i.d. CN(0, pdp[l]), so both directions keep the profile's per-tap power
    and correlate at exactly rho.  Eavesdropper taps are an independent draw
    with the same profile; with ``eavesdropper_independent`` off they equal
    the reverse taps (listener co-located with the far end).
    """
    rng = np.random.default_rng(seed)
    pdp = exponential_profile(model.num_taps, model.decay_db)
    g1 = _cn_taps(rng, pdp)
    g2 = _cn_taps(rng, pdp)
    ge = _cn_taps(rng, pdp)
    rho = model.reciprocity_rho
    reverse = rho * g1 + np.sqrt(max(0.0, 1.0 - rho * rho)) * g2
    return g1, reverse, (ge if model.eavesdropper_independent else reverse.copy())


# Standard-normal prefixes by seed value, with the generator that drew each:
# one trial's G, A and eavesdropper noise streams
_NORMALS_STREAMS = 3
_normals: dict[bytes, tuple[np.random.Generator, np.ndarray]] = {}


def _unit_normals(seed, count: int) -> np.ndarray:
    """The first ``count`` standard normals of ``default_rng(seed)``, read-only.

    ``seed`` is an int or a ``SeedSequence``.  Its stream is kept by value
    (the pool of ``SeedSequence(seed)``, its whole state, so an int and
    ``SeedSequence(int)`` share one), as one growing prefix plus the
    generator that drew it: a longer request draws only the missing tail,
    which equals one longer draw.  At most ``_NORMALS_STREAMS`` streams are
    kept, the least recently used evicted first; the worst case is
    3 x 2 MB at SF 12 with an 8-symbol preamble (2 x 131072 float64).
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    key = ss.pool.tobytes()
    rng, prefix = _normals.pop(key, None) or (np.random.default_rng(ss), np.empty(0))
    if count > len(prefix):
        tail = rng.standard_normal(count - len(prefix))
        prefix = np.concatenate([prefix, tail]) if len(prefix) else tail
        prefix.setflags(write=False)
    _normals[key] = rng, prefix
    if len(_normals) > _NORMALS_STREAMS:
        del _normals[next(iter(_normals))]
    return prefix[:count]


def _tap_sum(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The linear convolution of ``x`` with ``taps``, truncated to ``len(x)``,
    as a sum of shifted, scaled copies of ``x``, one per tap."""
    y = taps[0] * x
    for lag in range(1, min(taps.size, len(x))):
        y[lag:] += taps[lag] * x[:-lag]
    return y


# Noiseless tap sums by taps' bytes, with the input they faded and its mean
# power: one trial's G, A and eavesdropper legs
_LEGS = 3
_legs: dict[bytes, tuple[np.ndarray, np.ndarray, float]] = {}


def _faded(tx: np.ndarray, taps: np.ndarray) -> tuple[np.ndarray, float]:
    """The noiseless tap sum of ``tx`` (read-only) and its mean power.

    A sum is kept by the taps' bytes together with ``tx`` itself, and a
    lookup hits only for that very object (``is``, so a recycled ``id``
    cannot hit): the SNR cells of one trial and SF pass the same cached
    preamble through the same taps.  Only read-only inputs are kept, as a
    writable one could change under its entry.  At most ``_LEGS`` sums are
    kept, the least recently used evicted first: 3 x 256 KB at SF 9 with an
    8-symbol preamble.  A non-finite sample or tap makes the mean power
    non-finite, which is refused before anything is kept.
    """
    key = taps.tobytes()
    hit = _legs.pop(key, None)
    if hit is not None and hit[0] is tx:
        _legs[key] = hit
        return hit[1], hit[2]
    y = _tap_sum(tx, taps)
    p_rx = np.mean(np.abs(y) ** 2)
    if not math.isfinite(p_rx):
        raise ParameterError("samples and taps must be finite, with finite received power")
    y.setflags(write=False)
    if not tx.flags.writeable:
        _legs[key] = tx, y, p_rx
        if len(_legs) > _LEGS:
            del _legs[next(iter(_legs))]
    return y, p_rx


def apply_channel(tx: np.ndarray, taps: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Pass the signal through the taps and add receiver noise at the given SNR.

    The received signal is the linear convolution truncated to the input
    length, summed tap by tap (``_tap_sum``).  That sum and its mean power
    are shared by calls with the same input object and taps (``_faded``),
    so the SNR cells of one trial sum each leg once; at +inf dB (no noise)
    the shared sum is returned, read-only.  Noise is circularly-symmetric
    complex Gaussian scaled so that mean received signal power / noise
    power = 10**(snr_db/10), and the noisy output is built in its buffer.
    Its unit parts are the seed's first 2n standard normals, real then
    imaginary, read from the seed's shared stream (``_unit_normals``): the
    same seed at another SNR or a shorter input reads the same prefix.
    Raises ParameterError for an input that is not 1-d and non-empty, empty
    taps, a non-finite sample or tap, and a noise scale that overflows.
    """
    tx = np.asarray(tx)
    if tx.ndim != 1 or tx.size == 0:
        raise ParameterError("samples must be a non-empty 1-d array")
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.size == 0:
        raise ParameterError("taps must be non-empty")
    y, p_rx = _faded(tx, taps)
    ratio = _snr_ratio(snr_db)
    if ratio is None:
        return y
    scale = math.sqrt(p_rx / ratio / 2.0)
    if not math.isfinite(scale):
        raise ParameterError(f"noise at {snr_db} dB overflows for received power {p_rx}")
    n = len(y)
    z = _unit_normals(seed, 2 * n)
    noise = np.empty(n, dtype=np.complex128)
    noise.real = z[:n]
    noise.imag = z[n:]
    noise *= scale
    noise += y
    return noise


def receive(tx: np.ndarray, model: ChannelModel, seeds) -> tuple[np.ndarray, ...]:
    """Receptions of ``tx`` at G, A and the eavesdropper over one shared realization.

    ``seeds``: the realization's, then the noise of G, A and the eavesdropper.
    G hears A through the forward taps, A hears G through the reverse taps
    (block fading within a round), and the eavesdropper overhears G through
    its own taps.
    """
    s_real, *noise_seeds = seeds
    return tuple(apply_channel(tx, taps, model.snr_db, s)
                 for taps, s in zip(sample_channel(model, s_real), noise_seeds, strict=True))

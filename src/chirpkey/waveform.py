"""Chirp-spread-spectrum baseband waveforms: upchirp symbols, preambles, detection.

Everything here is baseband. Sampling instants are t = n/fs starting at
t = 0, so sample 0 always has phase 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import fft as sp_fft

from .errors import ParameterError, PreambleNotFoundError

DETECTION_THRESHOLD = 0.5


@dataclass(frozen=True)
class LoRaParams:
    """Modulation parameters of the chirp link.

    The symbol duration is T = 2**sf / bw and the chirp sweep rate is
    k = bw / T.  samples_per_symbol = T * fs must come out integer.
    """

    sf: int = 7
    bw: float = 250e3
    fs: float = 1e6
    preamble_len: int = 8

    def __post_init__(self) -> None:
        if not (5 <= self.sf <= 12):
            raise ParameterError(f"sf must be in [5, 12], got {self.sf}")
        if not (math.isfinite(self.bw) and math.isfinite(self.fs)):
            raise ParameterError(f"bw and fs must be finite, got bw={self.bw}, fs={self.fs}")
        if self.bw <= 0 or self.fs < self.bw:
            raise ParameterError(f"need fs >= bw > 0, got bw={self.bw}, fs={self.fs}")
        if self.preamble_len < 1:
            raise ParameterError(f"preamble_len must be >= 1, got {self.preamble_len}")
        n = (2**self.sf / self.bw) * self.fs
        if abs(n - round(n)) > 1e-9:
            raise ParameterError(
                f"samples per symbol (2^sf/bw)*fs = {n} is not an integer"
            )

    @property
    def symbol_duration(self) -> float:
        return 2**self.sf / self.bw

    @property
    def sweep_rate(self) -> float:
        return self.bw / self.symbol_duration

    @property
    def samples_per_symbol(self) -> int:
        return round((2**self.sf / self.bw) * self.fs)


@dataclass(frozen=True)
class IqSamples:
    """Complex baseband signal with its sample rate."""

    samples: np.ndarray = field(repr=False)
    fs: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("samples must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ParameterError("samples contain non-finite values")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)


@lru_cache(maxsize=16)
def gen_upchirp(params: LoRaParams) -> IqSamples:
    """One upchirp symbol: exp(j*pi*(-bw + k*t)*t) sampled at t = n/fs.

    The instantaneous frequency sweeps linearly from -bw/2 at t = 0 to
    +bw/2 at t = T; every sample has unit magnitude.  Cached, read-only.
    """
    n_sym = params.samples_per_symbol
    t = np.arange(n_sym) / params.fs
    phase = np.pi * (-params.bw + params.sweep_rate * t) * t
    chirp = np.exp(1j * phase)
    chirp.setflags(write=False)
    return IqSamples(chirp, params.fs)


@lru_cache(maxsize=16)
def gen_preamble(params: LoRaParams) -> IqSamples:
    """K identical upchirps back to back.  Cached, read-only."""
    preamble = np.tile(gen_upchirp(params).samples, params.preamble_len)
    preamble.setflags(write=False)
    return IqSamples(preamble, params.fs)


@lru_cache(maxsize=16)
def _matched_filter_spectrum(params: LoRaParams, nfft: int) -> np.ndarray:
    """FFT of the conjugate-reversed upchirp, zero-padded to nfft.  Cached,
    read-only."""
    spectrum = sp_fft.fft(np.conj(gen_upchirp(params).samples[::-1]), nfft)
    spectrum.setflags(write=False)
    return spectrum


def _energy_prefix_sum(cap: np.ndarray) -> np.ndarray:
    """[0, |cap[0]|^2, |cap[0]|^2 + |cap[1]|^2, ...] in float64, through two
    capture-length buffers: |cap|, squared in place, and the sum itself."""
    energy = np.abs(cap)
    np.square(energy, out=energy)
    cs = np.empty(len(cap) + 1)
    cs[0] = 0.0
    np.cumsum(energy, out=cs[1:])
    return cs


def detect_preamble(capture: IqSamples, params: LoRaParams) -> int:
    """Locate the preamble start in a capture by normalized cross-correlation.

    The full K-symbol preamble is used as the reference template: a single
    upchirp would produce K equal peaks (one per symbol boundary), making the
    start ambiguous under noise, whereas the K-symbol template peaks only at
    the true start.  As the template is K copies of one chirp c of n_sym
    samples, its correlation at lag l, sum_k sum_m cap[l + k*n_sym + m] *
    conj(c[m]), is the correlation of c with the folded capture
    S = sum_k cap[k*n_sym : k*n_sym + n_sym + lags - 1]; the window energy
    is a difference of one cumulative sum of |cap|^2, the template energy K
    times the chirp's.  The correlation is one FFT product against the
    chirp's cached spectrum, the same calls ``scipy.signal.fftconvolve``
    makes in "valid" mode.  The decision rule is the K-symbol one, unchanged:
    normalized |correlation|, argmax, threshold.

    Returns the sample offset of the best peak.  Raises
    PreambleNotFoundError if the peak correlation is below
    ``DETECTION_THRESHOLD``.
    """
    chirp = gen_upchirp(params).samples
    n_sym, k = len(chirp), params.preamble_len
    n = k * n_sym
    cap = capture.samples
    if len(cap) < n:
        raise ParameterError(
            f"capture has {len(cap)} samples, needs at least {n}"
        )
    lags = len(cap) - n + 1
    # row i is cap[i*n_sym : i*n_sym + n_sym + lags - 1]; row k - 1 ends at len(cap)
    step = cap.strides[0]
    rows = as_strided(cap, (k, n_sym + lags - 1), (n_sym * step, step), writeable=False)
    folded = rows.sum(axis=0)
    nfft = sp_fft.next_fast_len(len(folded) + n_sym - 1)
    spectrum = sp_fft.fft(folded, nfft) * _matched_filter_spectrum(params, nfft)
    num = np.abs(sp_fft.ifft(spectrum)[n_sym - 1 : n_sym - 1 + lags])
    cs = _energy_prefix_sum(cap)
    window_energy = np.maximum(cs[n:] - cs[:lags], 0.0)
    den = np.sqrt(window_energy * (k * np.vdot(chirp, chirp).real))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(den > 0, num / den, 0.0)
    offset = int(np.argmax(corr))
    if corr[offset] < DETECTION_THRESHOLD:
        raise PreambleNotFoundError(
            f"best correlation {corr[offset]:.3f} below threshold {DETECTION_THRESHOLD}"
        )
    return offset

"""Chirp-spread-spectrum baseband waveforms: upchirp symbols, preambles, detection.

Everything here is baseband. Sampling instants are t = n/fs starting at
t = 0, so sample 0 always has phase 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
        n = self.symbol_duration * self.fs
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
        return round(self.symbol_duration * self.fs)


@dataclass(frozen=True)
class IqSamples:
    """Complex baseband signal with its sample rate.

    Contiguous samples at capture depth (complex64, the layout SDR file
    sinks write) are kept as they are, not copied; anything else is widened
    to complex128, and strided samples are copied to a contiguous array.
    The consumers that transform samples (``detect_preamble``,
    ``cfr.estimate_from_frame``) widen what they read to complex128.
    """

    samples: np.ndarray = field(repr=False)
    fs: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.dtype != np.complex64:
            arr = arr.astype(np.complex128, copy=False)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("samples must be a non-empty 1-d sequence")
        arr = np.ascontiguousarray(arr)  # the float view below needs it
        if not np.all(np.isfinite(arr.view(arr.real.dtype))):
            raise ParameterError("samples contain non-finite values")
        object.__setattr__(self, "samples", arr)


@lru_cache(maxsize=16)
def gen_upchirp(params: LoRaParams) -> np.ndarray:
    """One upchirp symbol: exp(j*pi*(-bw + k*t)*t) sampled at t = n/fs.

    The instantaneous frequency sweeps linearly from -bw/2 at t = 0 to
    +bw/2 at t = T; every sample has unit magnitude.  Cached, read-only.
    """
    n_sym = params.samples_per_symbol
    t = np.arange(n_sym) / params.fs
    phase = np.pi * (-params.bw + params.sweep_rate * t) * t
    chirp = np.exp(1j * phase)
    chirp.setflags(write=False)
    return chirp


@lru_cache(maxsize=16)
def gen_preamble(params: LoRaParams) -> np.ndarray:
    """K identical upchirps back to back.  Cached, read-only."""
    preamble = np.tile(gen_upchirp(params), params.preamble_len)
    preamble.setflags(write=False)
    return preamble


@lru_cache(maxsize=16)
def _matched_filter_spectrum(params: LoRaParams, nfft: int) -> np.ndarray:
    """FFT of the conjugate-reversed upchirp, zero-padded to nfft.  Cached,
    read-only."""
    spectrum = np.fft.fft(np.conj(gen_upchirp(params)[::-1]), nfft)
    spectrum.setflags(write=False)
    return spectrum


def detect_preamble(capture: IqSamples, params: LoRaParams) -> int:
    """Locate the preamble start in a capture by normalized cross-correlation.

    The full K-symbol preamble is used as the reference template: a single
    upchirp would produce K equal peaks (one per symbol boundary), making the
    start ambiguous under noise, whereas the K-symbol template peaks only at
    the true start.  As the template is K copies of one chirp c of n_sym
    samples, its correlation at lag l, sum_k sum_m cap[l + k*n_sym + m] *
    conj(c[m]), is the correlation of c with the folded capture
    S = sum_k cap[k*n_sym : k*n_sym + n_sym + lags - 1], folded by K - 1
    slice-adds in row order (the order, and so the bits, of numpy's axis-0
    sum over the K rows).  The window energy is a difference of one
    cumulative sum of |cap|^2, built in one buffer by ``abs``, ``square``
    and ``cumsum`` in place; the template energy is K times the chirp's.
    The correlation is one circular correlation at nfft, the smallest power
    of two >= width, against the chirp's cached spectrum: lag l reads
    S[l : l + n_sym], and l + n_sym <= width <= nfft, so no kept lag wraps.
    A long capture whose width sits just above a power of two pays for up
    to ~2x its width.  The decision rule is the K-symbol one, unchanged:
    normalized |correlation|, argmax, threshold.  A capture-depth
    (complex64) capture is widened to complex128 once, on entry, so every
    step computes in double precision whatever the capture's depth.

    Returns the sample offset of the best peak.  Raises
    PreambleNotFoundError if the peak correlation is below
    ``DETECTION_THRESHOLD``.
    """
    chirp = gen_upchirp(params)
    n_sym, k = len(chirp), params.preamble_len
    n = k * n_sym
    cap = capture.samples.astype(np.complex128, copy=False)
    if len(cap) < n:
        raise ParameterError(
            f"capture has {len(cap)} samples, needs at least {n}"
        )
    lags = len(cap) - n + 1
    # row i is cap[i*n_sym : i*n_sym + width]; row k - 1 ends at len(cap)
    width = n_sym + lags - 1
    folded = cap[:width] + cap[n_sym : n_sym + width] if k > 1 else cap[:width]
    for i in range(2, k):
        folded += cap[i * n_sym : i * n_sym + width]
    nfft = 1 << (width - 1).bit_length()
    spectrum = np.fft.fft(folded, nfft)
    spectrum *= _matched_filter_spectrum(params, nfft)
    num = np.abs(np.fft.ifft(spectrum)[n_sym - 1 : n_sym - 1 + lags])
    # cs[i] is the energy of cap[:i], built in one buffer
    cs = np.empty(len(cap) + 1)
    cs[0] = 0.0
    energy = np.abs(cap, out=cs[1:])
    np.square(energy, out=energy)
    np.cumsum(energy, out=energy)
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

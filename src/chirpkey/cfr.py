"""Channel frequency response estimation from received chirp preambles.

Least-squares estimation is a per-bin division R[b]/S[b] of each received
symbol's spectrum by the reference spectrum (the transmitted symbol is
diagonal in the frequency domain), followed by averaging over the K
preamble symbols to beat down noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .waveform import IqSamples, LoRaParams, gen_upchirp

BIN_POLICIES = ("all-bins", "occupied-band")

# bins whose reference spectrum magnitude falls below this fraction of the
# peak are never divided by
LOW_REFERENCE_GUARD = 1e-6


@dataclass(frozen=True)
class Cfr:
    """Complex channel gain per retained FFT bin."""

    bins: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.bins)

    def amplitudes(self) -> np.ndarray:
        """|H| per retained bin: a plain float64 array, checked by the quantizer."""
        return np.abs(self.bins)


@lru_cache(maxsize=16)
def _reference(params: LoRaParams, bin_policy: str) -> tuple[np.ndarray, np.ndarray]:
    """Reference upchirp spectrum on the retained bins, and those bins; read-only."""
    n_sym = params.samples_per_symbol
    if bin_policy == "all-bins":
        idx = np.arange(n_sym)
    elif bin_policy == "occupied-band":
        freqs = np.fft.fftfreq(n_sym, 1.0 / params.fs)
        idx = np.where((freqs >= -params.bw / 2) & (freqs < params.bw / 2))[0]
    else:
        raise ParameterError(f"unknown bin policy {bin_policy!r}, expected one of {BIN_POLICIES}")
    ref = np.fft.fft(gen_upchirp(params))
    idx = idx[np.abs(ref[idx]) >= LOW_REFERENCE_GUARD * np.max(np.abs(ref))]
    ref_idx = ref[idx]
    ref_idx.setflags(write=False)
    idx.setflags(write=False)
    return ref_idx, idx


def _frame_bins(samples: np.ndarray, params: LoRaParams, bin_policy: str) -> np.ndarray:
    """The averaged LS estimate per retained bin from the first K symbol
    windows of 1-d ``samples``, which are not checked for finiteness."""
    n_sym = params.samples_per_symbol
    k = params.preamble_len
    if len(samples) < k * n_sym:
        raise ParameterError(
            f"frame has {len(samples)} samples, needs {k * n_sym}"
        )
    ref_idx, idx = _reference(params, bin_policy)
    symbols = samples[: k * n_sym].astype(np.complex128, copy=False)
    spectra = np.fft.fft(symbols.reshape(k, n_sym), axis=1)
    # take() keeps the quotients row-major, so the sum over the K symbols
    # runs in the same order a per-symbol stack would; a policy that keeps
    # every bin needs no take(), and the fresh spectra are divided in place
    if len(idx) < n_sym:
        spectra = spectra.take(idx, axis=1)
    spectra /= ref_idx
    # the mean over the K symbols: numpy's mean runs this sum and division
    bins = np.add.reduce(spectra, axis=0)
    bins /= k
    return bins


def estimate_from_frame(
    rx: IqSamples,
    params: LoRaParams,
    bin_policy: str = "all-bins",
) -> Cfr:
    """Averaged LS estimate from a preamble-aligned received frame.

    The first K symbol windows of ``rx``, widened to complex128 (a
    capture-depth frame is complex64), go through one (K, n) FFT; each
    retained bin is divided by the reference upchirp's spectrum and the K
    quotients are averaged, as one sum and one division by K.  Bins whose
    reference magnitude falls below the low-reference guard are dropped,
    never divided.  The retained bins and their reference spectrum are
    cached per (params, bin_policy).  The pipeline runs the same estimate
    on the samples of a capture from the detected offset on, without
    wrapping (and so rescanning) them in another ``IqSamples``.
    """
    return Cfr(_frame_bins(rx.samples, params, bin_policy))

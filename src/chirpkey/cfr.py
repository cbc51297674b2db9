"""Channel frequency response estimation from received chirp preambles.

Per-symbol least-squares estimation is a per-bin division R[b]/S[b] of the
received spectrum by the reference spectrum (the transmitted symbol is
diagonal in the frequency domain), followed by averaging over the K
preamble symbols to beat down noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    bin_indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.complex128)
        idx = np.asarray(self.bin_indices, dtype=np.intp)
        if bins.size == 0 or bins.shape != idx.shape:
            raise ParameterError("bins must be non-empty and match bin_indices")
        if not np.all(np.isfinite(bins.view(np.float64))):
            raise ParameterError("bins contain non-finite values")
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "bin_indices", idx)

    def __len__(self) -> int:
        return len(self.bins)

    def amplitudes(self) -> "CfrAmplitudes":
        return CfrAmplitudes(np.abs(self.bins))


@dataclass(frozen=True)
class CfrAmplitudes:
    """Magnitude of an averaged CFR, the raw material for quantization."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.size == 0:
            raise ParameterError("values must be non-empty")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ParameterError("values must be finite and non-negative")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


def _policy_indices(policy: str, n_sym: int, bw: float, fs: float) -> np.ndarray:
    if policy == "all-bins":
        return np.arange(n_sym)
    if policy == "occupied-band":
        freqs = np.fft.fftfreq(n_sym, 1.0 / fs)
        return np.where((freqs >= -bw / 2) & (freqs < bw / 2))[0]
    raise ParameterError(f"unknown bin policy {policy!r}, expected one of {BIN_POLICIES}")


def ls_estimate(
    rx_symbol: IqSamples,
    ref_symbol: IqSamples,
    bin_indices: np.ndarray | None = None,
) -> Cfr:
    """Least-squares CFR of one received symbol against the reference.

    ``bin_indices`` are the FFT bins to retain, all of them when None
    (estimate_from_frame resolves a bin policy to indices).  Bins whose
    reference magnitude falls below the low-reference guard are dropped,
    never divided.
    """
    rx = rx_symbol.samples
    ref = ref_symbol.samples
    if len(rx) != len(ref):
        raise ParameterError(f"length mismatch: rx {len(rx)} vs ref {len(ref)}")
    idx = np.arange(len(ref)) if bin_indices is None else np.asarray(bin_indices, dtype=np.intp)
    r_spec = np.fft.fft(rx)
    s_spec = np.fft.fft(ref)
    keep = np.abs(s_spec[idx]) >= LOW_REFERENCE_GUARD * np.max(np.abs(s_spec))
    idx = idx[keep]
    return Cfr(r_spec[idx] / s_spec[idx], idx)


def average_cfr(estimates: Sequence[Cfr]) -> Cfr:
    """Per-bin arithmetic mean of CFR estimates sharing one bin set."""
    if len(estimates) == 0:
        raise ParameterError("need at least one estimate")
    first = estimates[0]
    for est in estimates[1:]:
        if not np.array_equal(est.bin_indices, first.bin_indices):
            raise ParameterError("estimates have mismatched bin sets")
    stacked = np.stack([est.bins for est in estimates])
    return Cfr(stacked.mean(axis=0), first.bin_indices)


def estimate_from_frame(
    rx: IqSamples,
    params: LoRaParams,
    bin_policy: str = "all-bins",
) -> Cfr:
    """Averaged LS estimate from a preamble-aligned received frame.

    Splits the first K symbol windows out of ``rx``, runs the per-bin LS
    division on each against the reference upchirp, and averages.
    """
    n_sym = params.samples_per_symbol
    k = params.preamble_len
    if len(rx.samples) < k * n_sym:
        raise ParameterError(
            f"frame has {len(rx.samples)} samples, needs {k * n_sym}"
        )
    idx = _policy_indices(bin_policy, n_sym, params.bw, params.fs)
    ref = gen_upchirp(params)
    estimates = []
    for i in range(k):
        window = IqSamples(rx.samples[i * n_sym : (i + 1) * n_sym], rx.fs)
        estimates.append(ls_estimate(window, ref, idx))
    return average_cfr(estimates)

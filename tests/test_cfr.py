from dataclasses import replace

import numpy as np
import pytest

from chirpkey import (
    IqSamples,
    LoRaParams,
    ParameterError,
    apply_channel,
    estimate_from_frame,
    gen_preamble,
    gen_upchirp,
)
from chirpkey.cfr import BIN_POLICIES, LOW_REFERENCE_GUARD, _reference


def _circular_rx(params: LoRaParams, taps: np.ndarray) -> IqSamples:
    """Preamble through a circular (per-symbol) channel: exact DFT fixture."""
    n = params.samples_per_symbol
    sym = gen_upchirp(params)
    rx_sym = np.fft.ifft(np.fft.fft(sym) * np.fft.fft(taps, n))
    return IqSamples(np.tile(rx_sym, params.preamble_len), params.fs)


def _single(params: LoRaParams) -> LoRaParams:
    return replace(params, preamble_len=1)


def test_ls_identity_channel(default_params):
    ref = IqSamples(gen_upchirp(default_params), default_params.fs)
    est = estimate_from_frame(ref, _single(default_params))
    np.testing.assert_allclose(est.bins, 1.0, atol=1e-12)
    assert len(est) == 512


def test_ls_flat_complex_gain(default_params):
    ref = gen_upchirp(default_params)
    g = 0.3 - 1.7j
    rx = IqSamples(g * ref, default_params.fs)
    np.testing.assert_allclose(estimate_from_frame(rx, _single(default_params)).bins, g,
                               atol=1e-12)


def test_ls_two_tap_circular_channel(default_params):
    p = default_params
    n = p.samples_per_symbol
    taps = np.array([1.0, 0.5])
    rx = IqSamples(_circular_rx(p, taps).samples[:n], p.fs)
    est = estimate_from_frame(rx, _single(p))
    b = np.arange(n)
    expected = 1.0 + 0.5 * np.exp(-2j * np.pi * b / n)
    np.testing.assert_allclose(est.bins, expected, atol=1e-9)


def test_ls_length_mismatch(default_params):
    ref = gen_upchirp(default_params)
    rx = IqSamples(ref[:100], default_params.fs)
    with pytest.raises(ParameterError):
        estimate_from_frame(rx, _single(default_params))


def test_ls_linearity(default_params):
    p = _single(default_params)
    rng = np.random.default_rng(0)
    x1 = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    x2 = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = estimate_from_frame(IqSamples(a * x1 + b * x2, p.fs), p).bins
    rhs = (
        a * estimate_from_frame(IqSamples(x1, p.fs), p).bins
        + b * estimate_from_frame(IqSamples(x2, p.fs), p).bins
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def _frame_of(symbols: list, params: LoRaParams) -> tuple[IqSamples, LoRaParams]:
    """A frame of the given symbol windows, with K set to their count."""
    return IqSamples(np.concatenate(symbols), params.fs), replace(params, preamble_len=len(symbols))


def test_average_of_identical_estimates(default_params):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    one = estimate_from_frame(*_frame_of([x], default_params))
    avg = estimate_from_frame(*_frame_of([x] * 5, default_params))
    np.testing.assert_allclose(avg.bins, one.bins, rtol=1e-15, atol=0)


def test_average_cancellation(default_params):
    x = gen_upchirp(default_params) * (1 + 1j)
    est = estimate_from_frame(*_frame_of([x, -x], default_params))
    np.testing.assert_allclose(est.bins, 0.0, atol=1e-15)


def test_average_permutation_invariant(default_params):
    rng = np.random.default_rng(4)
    syms = [rng.standard_normal(512) + 1j * rng.standard_normal(512) for _ in range(6)]
    fwd = estimate_from_frame(*_frame_of(syms, default_params), "occupied-band").bins
    rev = estimate_from_frame(*_frame_of(syms[::-1], default_params), "occupied-band").bins
    np.testing.assert_allclose(fwd, rev, rtol=1e-12)


@pytest.mark.parametrize("sf", [7, 8])
@pytest.mark.parametrize("policy", BIN_POLICIES)
def test_frame_estimate_equals_per_symbol_loop(sf, policy):
    p = LoRaParams(sf=sf)
    n = p.samples_per_symbol
    rng = np.random.default_rng(sf)
    rx = IqSamples((rng.standard_normal(p.preamble_len * n + 7)
                    + 1j * rng.standard_normal(p.preamble_len * n + 7)).astype(np.complex64),
                   p.fs)
    ref = np.fft.fft(gen_upchirp(p))
    freqs = np.fft.fftfreq(n, 1 / p.fs)
    in_band = (freqs >= -p.bw / 2) & (freqs < p.bw / 2)
    above_guard = np.abs(ref) >= LOW_REFERENCE_GUARD * np.max(np.abs(ref))
    idx = np.flatnonzero(above_guard & (in_band if policy == "occupied-band" else True))
    wide = rx.samples.astype(np.complex128)
    per_symbol = [
        np.fft.fft(wide[i * n : (i + 1) * n])[idx] / ref[idx]
        for i in range(p.preamble_len)
    ]
    est = estimate_from_frame(rx, p, policy)
    np.testing.assert_array_equal(est.bins, np.stack(per_symbol).mean(axis=0))


def test_frame_estimate_clean_preamble(default_params):
    est = estimate_from_frame(IqSamples(gen_preamble(default_params), default_params.fs),
                              default_params)
    np.testing.assert_allclose(est.bins, 1.0, atol=1e-12)


def test_frame_estimate_circular_taps(default_params):
    p = default_params
    taps = np.array([1.0, 0.5])
    est = estimate_from_frame(_circular_rx(p, taps), p)
    n = p.samples_per_symbol
    expected = 1.0 + 0.5 * np.exp(-2j * np.pi * np.arange(n) / n)
    np.testing.assert_allclose(est.bins, expected, atol=1e-9)


def test_frame_estimate_random_circular_taps_exact(default_params):
    p = default_params
    rng = np.random.default_rng(99)
    for _ in range(5):
        ntaps = int(rng.integers(1, 9))
        taps = rng.standard_normal(ntaps) + 1j * rng.standard_normal(ntaps)
        est = estimate_from_frame(_circular_rx(p, taps), p)
        expected = np.fft.fft(taps, p.samples_per_symbol)
        np.testing.assert_allclose(est.bins, expected, atol=1e-9)


def test_frame_estimate_too_short(default_params):
    rx = IqSamples(gen_preamble(default_params)[:-1], default_params.fs)
    with pytest.raises(ParameterError):
        estimate_from_frame(rx, default_params)


def test_averaging_beats_single_symbol(default_params):
    p = default_params
    tx = gen_preamble(p)
    single = _single(p)
    err_k8, err_k1 = [], []
    for seed in range(100):
        rx = apply_channel(tx, np.array([1.0]), snr_db=30.0, seed=seed)
        est = estimate_from_frame(IqSamples(rx, p.fs), p, "occupied-band")
        err_k8.append(np.mean(np.abs(est.bins - 1.0) ** 2))
        rx1 = IqSamples(rx[: p.samples_per_symbol], p.fs)
        est1 = estimate_from_frame(rx1, single, "occupied-band")
        err_k1.append(np.mean(np.abs(est1.bins - 1.0) ** 2))
    assert np.sqrt(np.mean(err_k8)) < np.sqrt(np.mean(err_k1))


def test_bin_policies_retain_expected_counts(default_params):
    p = default_params
    pre = IqSamples(gen_preamble(p), p.fs)
    assert len(estimate_from_frame(pre, p, "all-bins")) == 512
    occupied = estimate_from_frame(pre, p, "occupied-band")
    assert len(occupied) == round(512 * p.bw / p.fs) == 128
    freqs = np.fft.fftfreq(512, 1 / p.fs)[_reference(p, "occupied-band")[1]]
    assert np.all((freqs >= -p.bw / 2) & (freqs < p.bw / 2))


def test_unknown_policy_rejected(default_params):
    with pytest.raises(ParameterError):
        estimate_from_frame(IqSamples(gen_preamble(default_params), default_params.fs),
                            default_params, "sideband")


@pytest.mark.parametrize("policy", BIN_POLICIES)
def test_cached_arrays_are_read_only(default_params, policy):
    p = default_params

    def cached():
        pre = gen_preamble(p)
        return [pre, gen_upchirp(p), *_reference(p, policy)]

    first = cached()
    snapshot = [a.copy() for a in first]
    for a in first:
        with pytest.raises(ValueError):
            a[0] = 0
    for want, got in zip(snapshot, cached()):
        np.testing.assert_array_equal(got, want)

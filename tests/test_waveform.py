import numpy as np
import pytest
from scipy.signal import fftconvolve

from chirpkey import (
    IqSamples,
    LoRaParams,
    ParameterError,
    PreambleNotFoundError,
    detect_preamble,
    gen_preamble,
    gen_upchirp,
)
from chirpkey.waveform import DETECTION_THRESHOLD


def test_default_params_sample_counts(default_params):
    assert default_params.samples_per_symbol == 512
    assert default_params.symbol_duration == pytest.approx(2**7 / 250e3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sf=4),
        dict(sf=13),
        dict(fs=100e3),  # fs < bw
        dict(bw=0),
        dict(preamble_len=0),
        dict(fs=999e3),  # non-integer samples per symbol
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        LoRaParams(**kwargs)


def test_upchirp_starts_at_phase_zero(default_params):
    chirp = gen_upchirp(default_params)
    assert chirp[0] == pytest.approx(1 + 0j)
    assert len(chirp) == 512


def test_upchirp_unit_magnitude(default_params):
    chirp = gen_upchirp(default_params)
    assert np.max(np.abs(np.abs(chirp) - 1.0)) < 1e-12


def test_upchirp_phase_matches_closed_form(default_params):
    p = default_params
    chirp = gen_upchirp(p)
    t = np.arange(p.samples_per_symbol) / p.fs
    expected = np.pi * (-p.bw * t + p.sweep_rate * t**2)
    observed = np.unwrap(np.angle(chirp))
    assert np.max(np.abs(observed - expected)) < 1e-9


def test_instantaneous_frequency_sweeps_the_band(default_params):
    p = default_params
    chirp = gen_upchirp(p)
    phase = np.unwrap(np.angle(chirp))
    inst_freq = np.diff(phase) * p.fs / (2 * np.pi)
    # half-sample offset of the finite difference: f((n + 0.5)/fs)
    t_mid = (np.arange(len(inst_freq)) + 0.5) / p.fs
    expected = -p.bw / 2 + p.sweep_rate * t_mid
    assert np.max(np.abs(inst_freq - expected)) < 1.0  # Hz
    assert inst_freq[0] == pytest.approx(-p.bw / 2, abs=p.bw / 256)
    assert inst_freq[-1] == pytest.approx(p.bw / 2, abs=p.bw / 256)


def test_preamble_is_k_repetitions(default_params):
    p = default_params
    pre = gen_preamble(p)
    assert len(pre) == p.preamble_len * 512
    one = gen_upchirp(p)
    for i in range(p.preamble_len):
        np.testing.assert_array_equal(pre[i * 512 : (i + 1) * 512], one)


def test_preamble_with_k1_equals_upchirp():
    p = LoRaParams(preamble_len=1)
    np.testing.assert_array_equal(gen_preamble(p), gen_upchirp(p))


def _embed(preamble: np.ndarray, offset: int, tail: int, fs: float) -> IqSamples:
    return IqSamples(
        np.concatenate([
            np.zeros(offset, dtype=complex),
            preamble,
            np.zeros(tail, dtype=complex),
        ]),
        fs,
    )


def test_detect_clean_embedding(default_params):
    pre = gen_preamble(default_params)
    cap = _embed(pre, 777, 400, default_params.fs)
    assert detect_preamble(cap, default_params) == 777


def test_detect_offset_sweep_exhaustive(small_params):
    pre = gen_preamble(small_params)
    n_sym = small_params.samples_per_symbol
    for offset in range(0, n_sym + 1):
        cap = _embed(pre, offset, 37, small_params.fs)
        assert detect_preamble(cap, small_params) == offset


def test_detect_at_20db_snr(default_params):
    pre = gen_preamble(default_params)
    rng = np.random.default_rng(1234)
    hits = 0
    for _ in range(100):
        offset = int(rng.integers(0, 800))
        cap = _embed(pre, offset, 900 - offset, default_params.fs).samples
        noise_std = np.sqrt(10 ** (-20 / 10) / 2)
        cap = cap + noise_std * (
            rng.standard_normal(len(cap)) + 1j * rng.standard_normal(len(cap))
        )
        hits += detect_preamble(IqSamples(cap, default_params.fs), default_params) == offset
    assert hits >= 99


def _template_correlation_peak(cap: np.ndarray, params: LoRaParams) -> tuple[int, float]:
    """Reference detector: the K-symbol template correlated at every lag,
    window energy by convolution with ones; returns (argmax, peak)."""
    template = np.tile(gen_upchirp(params), params.preamble_len)
    n = len(template)
    num = np.abs(fftconvolve(cap, np.conj(template[::-1]), mode="valid"))
    energy = fftconvolve(np.abs(cap) ** 2, np.ones(n), mode="valid").real
    den = np.sqrt(np.maximum(energy, 0.0) * np.sum(np.abs(template) ** 2))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(den > 0, num / den, 0.0)
    offset = int(np.argmax(corr))
    return offset, corr[offset]


@pytest.mark.parametrize("snr_db", [None, 0.0, -4.0, -15.0])
# "frame": a simulated frame's lag count, n_sym + 1, so the fold width 2*n_sym
# is itself the transform length, with the preamble at the last lag
@pytest.mark.parametrize("lag_case", ["one", "below-symbol", "above-symbol", "frame"])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize(
    "link",
    [(7, 250e3, 1e6), (8, 250e3, 1e6), (9, 250e3, 1e6), (5, 250e3, 250e3)],  # last: small_params
)
def test_detect_equals_k_symbol_template_reference(link, k, lag_case, snr_db):
    sf, bw, fs = link
    p = LoRaParams(sf=sf, bw=bw, fs=fs, preamble_len=k)
    n_sym = p.samples_per_symbol
    lags = {"one": 1, "below-symbol": n_sym // 2 + 3, "above-symbol": 2 * n_sym + 5,
            "frame": n_sym + 1}[lag_case]
    rng = np.random.default_rng([sf, k, lags, 0 if snr_db is None else int(snr_db) + 100])
    offset = lags - 1 if lag_case == "frame" else int(rng.integers(lags))
    signal = gen_preamble(p)
    if snr_db is not None:
        # multipath smears the peak over neighbouring lags, noise sets its height
        taps = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * [1.0, 0.5, 0.25]
        signal = np.convolve(signal, taps)[: len(signal)]
    cap = _embed(signal, offset, lags - 1 - offset, p.fs).samples
    if snr_db is None:
        # impulses next to the preamble: a window one sample off takes one in
        cap[[i for i in (offset - 1, offset + len(signal)) if 0 <= i < len(cap)]] = 30.0
    else:
        noise_std = np.sqrt(np.mean(np.abs(signal) ** 2) * 10 ** (-snr_db / 10) / 2)
        cap = cap + noise_std * (rng.standard_normal(len(cap)) + 1j * rng.standard_normal(len(cap)))
    want, peak = _template_correlation_peak(cap, p)
    if peak < DETECTION_THRESHOLD:
        with pytest.raises(PreambleNotFoundError):
            detect_preamble(IqSamples(cap, p.fs), p)
    else:
        assert detect_preamble(IqSamples(cap, p.fs), p) == want
    if snr_db is None:
        assert want == offset


def test_detect_at_fold_widths_beside_a_power_of_two(small_params):
    # the transform must hold the whole fold, also one sample past a power of
    # two; the preamble sits at the last lag, which reads the fold's last sample
    pre = gen_preamble(small_params)
    n_sym = small_params.samples_per_symbol
    for width in (63, 64, 65):
        lags = width - n_sym + 1
        assert detect_preamble(_embed(pre, lags - 1, 0, small_params.fs), small_params) == lags - 1


def test_detect_rejects_silence(default_params):
    cap = IqSamples(np.zeros(6000, dtype=complex), default_params.fs)
    with pytest.raises(PreambleNotFoundError):
        detect_preamble(cap, default_params)


def test_detect_rejects_short_capture(default_params):
    cap = IqSamples(np.ones(100, dtype=complex), default_params.fs)
    with pytest.raises(ParameterError):
        detect_preamble(cap, default_params)


def test_iq_samples_validation():
    with pytest.raises(ParameterError):
        IqSamples(np.array([], dtype=complex), 1e6)
    with pytest.raises(ParameterError):
        IqSamples(np.array([1.0, np.nan], dtype=complex), 1e6)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_iq_samples_take_strided_samples(dtype):
    """A strided 1-d view is scanned like any other input: accepted when
    finite, ParameterError (not numpy's contiguity error) at a NaN; a
    contiguous capture-depth array is still kept without a copy."""
    x = np.arange(10, dtype=dtype) * (1 - 1j)
    iq = IqSamples(x[::2], 1e6)
    assert iq.samples.dtype == dtype
    np.testing.assert_array_equal(iq.samples, x[::2])
    x[3] = np.nan  # skipped by the stride
    np.testing.assert_array_equal(IqSamples(x[::2], 1e6).samples, x[::2])
    x[4] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        IqSamples(x[::2], 1e6)
    frame = np.zeros(8, dtype=np.complex64)
    assert IqSamples(frame, 1e6).samples is frame

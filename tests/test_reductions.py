"""Each per-round reduction that calls ufuncs directly equals the numpy
wrapper it replaced, bit for bit.

The golden digests see only default rounds, so the inputs here reach past
the default config: odd lengths, trailing blocks of one value, constant
blocks, coarse values with ties, keys of 1-600 bits.  Each reference is the
expression the code ran before, kept here; floats are compared by their
bytes (``float.hex`` or ``tobytes``), not by value.
"""
import numpy as np
import pytest

from chirpkey import channel
from chirpkey.cfr import _reference, estimate_from_frame
from chirpkey.metrics import longest_runs, max_run_lengths, skdr
from chirpkey.quantizer import BitKey, QuantizerConfig, _row_thresholds, _thresholds
from chirpkey.reconciliation import consume_positions, estimate_qber
from chirpkey.waveform import IqSamples, LoRaParams

KEY_LENGTHS = [1, 2, 3, 7, 63, 64, 65, 127, 255, 256, 257, 511, 600]


def _old_row_thresholds(blocks: np.ndarray, alpha: float) -> np.ndarray:
    center = blocks.mean(axis=-1)
    width = blocks.std(axis=-1)
    constant = np.all(blocks == blocks[..., :1], axis=-1)
    bounds = np.stack([center + alpha * width, center - alpha * width], axis=-2)
    return np.where(constant[..., None, :], blocks[..., None, :, 0], bounds)


def _amplitude_rows(rng, rows: int, n: int) -> np.ndarray:
    """Rows of one of: Rayleigh-like values, coarse values with ties, values
    spanning many decades, or constant runs."""
    kind = rng.integers(4)
    if kind == 0:
        return np.abs(rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    if kind == 1:
        return rng.integers(0, 4, (rows, n)) / 4.0
    if kind == 2:
        return 10.0 ** rng.uniform(-150, 150, (rows, n))
    return np.repeat(rng.random((rows, 1)), n, axis=1)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.7])
def test_row_thresholds_equal_mean_and_std(alpha):
    rng = np.random.default_rng(44)
    for _ in range(300):
        rows, m = int(rng.integers(1, 4)), int(rng.integers(1, 71))
        blocks = _amplitude_rows(rng, rows, m * int(rng.integers(0, 6))).reshape(rows, -1, m)
        got = _row_thresholds(blocks, alpha)
        assert got.tobytes() == _old_row_thresholds(blocks, alpha).tobytes(), (rows, m)


def test_thresholds_with_trailing_blocks_equal_mean_and_std():
    # the trailing remainder is a strided view, one value long when n % m == 1
    rng = np.random.default_rng(4401)
    for _ in range(300):
        rows, n, m = int(rng.integers(1, 4)), int(rng.integers(1, 301)), int(rng.integers(2, 71))
        v = _amplitude_rows(rng, rows, n)
        cfg = QuantizerConfig(alpha=float(rng.uniform(0, 2)), block_size=m)
        full = n - n % m
        want = [_old_row_thresholds(v[:, :full].reshape(rows, -1, m), cfg.alpha)]
        if full < n:
            want.append(_old_row_thresholds(v[:, None, full:], cfg.alpha))
        assert _thresholds(v, cfg).tobytes() == np.concatenate(want, axis=-1).tobytes(), (n, m)


def _key_pairs(seed: int):
    """(a, b) bit arrays of every length in KEY_LENGTHS, at several error rates,
    plus all-equal and all-different pairs."""
    rng = np.random.default_rng(seed)
    for n in KEY_LENGTHS:
        for q in (0.0, 0.003, 0.05, 0.5, 1.0):
            a = rng.integers(0, 2, n, dtype=np.uint8)
            yield a, a ^ (rng.random(n) < q).astype(np.uint8)


def test_skdr_equals_mean_of_disagreements():
    for a, b in _key_pairs(4402):
        got = skdr(BitKey(a), BitKey(b))
        assert type(got) is float
        assert got.hex() == float(np.mean(a != b)).hex(), len(a)


def test_max_run_lengths_equal_two_longest_runs_calls():
    rng = np.random.default_rng(4403)
    cases = [np.zeros(n, np.uint8) for n in KEY_LENGTHS]
    cases += [np.ones(n, np.uint8) for n in KEY_LENGTHS]
    cases += [(rng.random(n) < p).astype(np.uint8) for n in KEY_LENGTHS for p in (0.1, 0.5, 0.9)]
    for b in cases:
        want = int(longest_runs(b[None], 0)[0]), int(longest_runs(b[None], 1)[0])
        got = max_run_lengths(b)
        assert got == want and all(type(x) is int for x in got), len(b)


def test_consume_positions_equals_delete():
    rng = np.random.default_rng(4404)
    for n in KEY_LENGTHS:
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        key = BitKey(bits, "initial")
        samples = [np.sort(rng.choice(n, size=c, replace=False)) for c in {0, 1, n // 2, n - 1, n}]
        samples += [rng.permutation(n)[: n // 3], [], [n - 1], [-1]]
        for positions in samples:
            got = consume_positions(key, positions)
            want = np.delete(bits, positions)
            assert got.bits.dtype == want.dtype and got.bits.tobytes() == want.tobytes()
            assert got.stage == "initial"


def test_consume_positions_rejects_what_delete_rejects():
    key = BitKey(np.zeros(8, np.uint8))
    for positions in ([8], [-9], np.array([1.0])):
        with pytest.raises(IndexError):
            np.delete(key.bits, positions)
        with pytest.raises(IndexError):
            consume_positions(key, positions)


def test_qber_estimate_equals_clipped_mean():
    seeds = iter(range(10_000))
    for a, b in _key_pairs(4405):
        if len(a) < 2:
            continue
        for fraction in (0.01, 0.1, 0.37, 0.5):
            if max(1, int(np.ceil(fraction * len(a)))) >= len(a):
                continue
            sample = estimate_qber(BitKey(a), BitKey(b), fraction, next(seeds))
            p = sample.positions
            want = float(np.clip(np.mean(a[p] != b[p]), 0.01, 0.49))
            assert type(sample.estimate) is float
            assert sample.estimate.hex() == want.hex(), (len(a), fraction)


def test_faded_power_equals_mean_of_squared_magnitudes():
    rng = np.random.default_rng(4406)
    for n in (1, 2, 3, 255, 1023, 4096, 4097, 36_865):
        for scale in (1e-150, 1.0, 1e150):
            tx = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            taps = rng.standard_normal(int(rng.integers(1, 9))) + 0j
            y, power = channel._faded(tx, taps)  # a writable input is not kept
            assert float(power).hex() == float(np.mean(np.abs(y) ** 2)).hex(), (n, scale)


@pytest.mark.parametrize("k", [1, 3, 5, 6, 7, 8])
@pytest.mark.parametrize("bin_policy", ["all-bins", "occupied-band"])
def test_cfr_average_equals_mean_over_symbols(k, bin_policy):
    # only K a power of two divides exactly; others round, as numpy's mean does
    p = LoRaParams(sf=7, preamble_len=k)
    n_sym = p.samples_per_symbol
    rng = np.random.default_rng([4407, k])
    rx = (rng.standard_normal(k * n_sym + 5) + 1j * rng.standard_normal(k * n_sym + 5))
    rx = rx.astype(np.complex64)
    ref, idx = _reference(p, bin_policy)
    spectra = np.fft.fft(rx[: k * n_sym].astype(np.complex128).reshape(k, n_sym), axis=1)
    want = (spectra.take(idx, axis=1) / ref).mean(axis=0)
    got = estimate_from_frame(IqSamples(rx, p.fs), p, bin_policy).bins
    assert got.tobytes() == want.tobytes()

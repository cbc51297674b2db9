"""Randomness-suite checks against the published worked examples.

The reference p-values below are frozen from the standard battery's
documentation; digit streams of pi and e (integer part included) reproduce
them to the documented precision.
"""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from chirpkey import ParameterError
from chirpkey.metrics import longest_runs
from chirpkey.nist import (
    _LC_PROBS,
    _LONGEST_RUN_TABLE,
    PASS_LEVEL,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    frequency_test,
    linear_complexities,
    linear_complexity_test,
    longest_run_test,
    non_overlapping_template_test,
    run_suite,
    spectral_fft_test,
)

from conftest import bits_from, constant_bits

LONGEST_RUN_128 = bits_from(
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


def test_frequency_worked_example():
    assert frequency_test(constant_bits("pi", 100)).p_value == pytest.approx(
        0.109599, abs=1e-4
    )


def test_frequency_alternating_is_perfectly_balanced():
    bits = np.tile([0, 1], 50)
    assert frequency_test(bits).p_value == pytest.approx(1.0)


def test_frequency_all_ones_fails_hard():
    result = frequency_test(np.ones(100, dtype=np.uint8))
    assert result.p_value < 1e-20
    assert not result.passed


@pytest.mark.parametrize("value", [0.9, 0.5, 1.5, -1.0])
def test_non_binary_float_bits_rejected(value):
    # one bad entry among 0.0/1.0 floats; a cast to uint8 would truncate it
    bits = np.tile([0.0, 1.0], 100)
    bits[17] = value
    with pytest.raises(ParameterError, match="bits must be 0 or 1"):
        frequency_test(bits)


def test_float_and_bool_bits_equal_uint8():
    bits = np.random.default_rng(5).integers(0, 2, 500, dtype=np.uint8)
    want = frequency_test(bits).p_value
    assert frequency_test(bits.astype(float)).p_value == want
    assert frequency_test(bits.astype(bool)).p_value == want
    assert frequency_test(bits.tolist()).p_value == want


def test_block_frequency_worked_example():
    result = block_frequency_test(constant_bits("pi", 100), block_len=10)
    assert result.p_value == pytest.approx(0.706438, abs=1e-4)


def test_cumulative_sums_worked_example():
    result = cumulative_sums_test(constant_bits("pi", 100))
    assert result.p_value == pytest.approx(0.219194, abs=1e-4)


def test_longest_run_worked_example():
    assert len(LONGEST_RUN_128) == 128
    result = longest_run_test(LONGEST_RUN_128)
    assert result.p_value == pytest.approx(0.180609, abs=1e-4)


def test_spectral_worked_example():
    result = spectral_fft_test(constant_bits("e", 100))
    assert result.p_value == pytest.approx(0.168669, abs=1e-4)


def test_non_overlapping_template_worked_example():
    bits = bits_from("10100100101110010110")
    result = non_overlapping_template_test(bits, template="001", num_blocks=2)
    assert result.p_value == pytest.approx(0.344154, abs=1e-4)


@pytest.mark.parametrize("template", ["11", "00", "010", "0101", "1101", "110110", "000000000"])
def test_non_overlapping_template_rejects_periodic_templates(template):
    # a proper prefix equals a suffix, so occurrences could overlap
    with pytest.raises(ParameterError, match="aperiodic"):
        non_overlapping_template_test(np.zeros(1000, dtype=np.uint8), template=template)


def test_approximate_entropy_worked_example():
    result = approximate_entropy_test(constant_bits("pi", 100), m_pattern=2)
    assert result.p_value == pytest.approx(0.235301, abs=1e-4)


def test_approximate_entropy_note_names_the_failed_bound():
    note = approximate_entropy_test(np.zeros(1000, dtype=np.uint8), m_pattern=10).note
    assert note == "needs n >= max(100, 2^(m+1)) = 2048, got 1000"


@pytest.mark.slow
def test_linear_complexity_worked_example():
    result = linear_complexity_test(constant_bits("e", 1_000_000), block_len=1000)
    assert result.p_value == pytest.approx(0.845406, abs=1e-4)


def _one_row(bits):
    return int(linear_complexities(np.array([bits], dtype=np.uint8))[0])


def test_berlekamp_massey_known_lfsr():
    # maximal-length sequence of s[n] = s[n-1] ^ s[n-3] has complexity 3
    seq = [1, 0, 0]
    for n in range(3, 21):
        seq.append(seq[n - 1] ^ seq[n - 3])
    assert _one_row(seq) == 3


def test_berlekamp_massey_simple_cases():
    assert _one_row(np.zeros(16)) == 0
    assert _one_row([0, 0, 0, 1]) == 4
    assert _one_row(np.tile([0, 1], 8)) == 2


def test_all_zeros_fails_frequency_family():
    zeros = np.zeros(10_000, dtype=np.uint8)
    assert frequency_test(zeros).p_value < 1e-20
    assert block_frequency_test(zeros).p_value < 1e-20
    assert cumulative_sums_test(zeros).p_value < 1e-20


def test_complement_invariance_of_frequency():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 5000).astype(np.uint8)
    assert frequency_test(bits).p_value == pytest.approx(
        frequency_test(1 - bits).p_value, abs=1e-12
    )


def test_permutation_sensitivity_differential():
    # a biased-run input: permuting it changes longest-run but not frequency
    rng = np.random.default_rng(1)
    bits = np.concatenate([np.ones(320, dtype=np.uint8),
                           rng.integers(0, 2, 4800).astype(np.uint8)])
    permuted = bits[rng.permutation(len(bits))]
    assert frequency_test(bits).p_value == pytest.approx(
        frequency_test(permuted).p_value, abs=1e-12
    )
    assert longest_run_test(bits).p_value != pytest.approx(
        longest_run_test(permuted).p_value, abs=1e-6
    )


def test_p_values_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(10):
        bits = rng.integers(0, 2, 2000).astype(np.uint8)
        for result in run_suite(bits).results:
            if result.applicable:
                assert 0.0 <= result.p_value <= 1.0


def test_suite_on_prng_passes():
    bits = np.random.default_rng(2718).integers(0, 2, 1_000_000).astype(np.uint8)
    report = run_suite(bits)
    assert all(r.applicable for r in report.results)
    assert report.overall_pass


def test_suite_all_ones_fails():
    report = run_suite(np.ones(10_000, dtype=np.uint8))
    assert not report.overall_pass
    assert not report.insufficient_data


def test_suite_short_input_insufficient():
    report = run_suite(np.random.default_rng(3).integers(0, 2, 50).astype(np.uint8))
    assert report.insufficient_data
    assert not report.overall_pass
    assert all(not r.applicable for r in report.results)


def test_report_csv_shape():
    report = run_suite(np.random.default_rng(4).integers(0, 2, 2000).astype(np.uint8))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "test_name,p_value,applicable,pass"
    assert len(lines) == 9


@pytest.mark.slow
def test_rejection_rate_calibration():
    # under the null each test should reject at 0.01 rarely: <= 5 of 200
    rng = np.random.default_rng(99)
    rejections = {name: 0 for name in (
        "frequency", "block_frequency", "cumulative_sums", "longest_run",
        "spectral_fft", "non_overlapping_template", "approximate_entropy",
        "linear_complexity",
    )}
    for _ in range(200):
        bits = rng.integers(0, 2, 100_000).astype(np.uint8)
        for result in run_suite(bits).results:
            assert result.applicable
            if result.p_value < PASS_LEVEL:
                rejections[result.name] += 1
    assert all(count <= 5 for count in rejections.values()), rejections


# Per-bit and per-block references: the scan that skips past each template
# hit, one longest-run call and one Berlekamp-Massey run per block, and one
# class tally per bound or block.  The rewritten tests must reproduce them
# bit for bit.

def _longest_run(row, value):
    return max((len(list(g)) for v, g in itertools.groupby(row.tolist()) if v == value),
               default=0)


def _reference_longest_run(b):
    n = len(b)
    for min_n, m_blk, lo, probs in _LONGEST_RUN_TABLE:
        if n >= min_n:
            break
    bounds = range(lo, lo + len(probs))
    num = n // m_blk
    runs = np.array([_longest_run(b[i * m_blk : (i + 1) * m_blk], 1) for i in range(num)])
    nu = np.zeros(len(bounds))
    clipped = np.clip(runs, bounds[0], bounds[-1])
    for j, bound in enumerate(bounds):
        nu[j] = np.sum(clipped == bound)
    expected = num * np.asarray(probs)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    return float(gammaincc((len(bounds) - 1) / 2.0, chi2 / 2.0))


def _reference_template(b, template, num_blocks):
    m = len(template)
    block_len = len(b) // num_blocks
    tpl = np.array([int(c) for c in template], dtype=np.uint8)
    counts = np.zeros(num_blocks)
    for j in range(num_blocks):
        blk = b[j * block_len : (j + 1) * block_len]
        i = hits = 0
        while i <= block_len - m:
            if np.array_equal(blk[i : i + m], tpl):
                hits += 1
                i += m
            else:
                i += 1
        counts[j] = hits
    mean = (block_len - m + 1) / 2.0**m
    var = block_len * (1.0 / 2.0**m - (2.0 * m - 1.0) / 2.0 ** (2 * m))
    chi2 = float(np.sum((counts - mean) ** 2 / var))
    return float(gammaincc(num_blocks / 2.0, chi2 / 2.0))


def berlekamp_massey(block) -> int:
    """Linear complexity of one bit block (connection polynomials as int bitmasks)."""
    c_poly, b_poly = 1, 1
    complexity, last_change = 0, -1
    window = 0
    for idx, bit in enumerate(block):
        window = (window << 1) | int(bit)
        if (c_poly & window).bit_count() & 1:
            t = c_poly
            c_poly ^= b_poly << (idx - last_change)
            if 2 * complexity <= idx:
                complexity = idx + 1 - complexity
                b_poly = t
                last_change = idx
    return complexity


def _linear_complexities_reference(blocks):
    """Bit-sliced Berlekamp-Massey over a per-lane complexity array: the
    discrepancy is unpacked to test 2 L <= idx and packed again at every
    step, and every step touches all idx + 2 rows."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    num, m = blocks.shape
    g = -(-num // 64)
    lanes = np.zeros((m, 64 * g), dtype=np.uint8)
    lanes[:, :num] = blocks.T
    s = np.packbits(lanes, axis=1, bitorder="little").view("<u8")
    ones = ~np.uint64(0)
    c = np.zeros((m + 1, g), dtype="<u8")
    c[0] = ones
    b_buf = np.zeros((m + 2, g), dtype="<u8")
    b_buf[m + 1] = ones
    complexity = np.zeros(64 * g, dtype=np.int64)
    for idx in range(m):
        d = np.bitwise_xor.reduce(c[: idx + 1] & s[idx::-1], axis=0)
        grow = np.unpackbits(d.view(np.uint8), bitorder="little").view(bool)
        grow &= 2 * complexity <= idx
        np.subtract(idx + 1, complexity, out=complexity, where=grow)
        upd = np.packbits(grow, bitorder="little").view("<u8")
        bs, cs = b_buf[m - idx :], c[: idx + 2]
        swap = (bs ^ cs) & upd
        cs ^= bs & d
        bs ^= swap
    return complexity[:num]


def _reference_approximate_entropy(b, m_pattern):
    """phi(m) - phi(m + 1), each from its own scan of the wraparound patterns."""
    n = len(b)

    def phi(m):
        if m == 0:
            return 0.0
        aug = np.concatenate([b, b[: m - 1]])
        codes = np.zeros(n, dtype=np.int64)
        for j in range(m):
            codes = (codes << 1) | aug[j : j + n]
        counts = np.bincount(codes, minlength=2**m).astype(np.float64)
        freqs = counts[counts > 0] / n
        return float(np.sum(freqs * np.log(freqs)))

    apen = phi(m_pattern) - phi(m_pattern + 1)
    chi2 = 2.0 * n * (np.log(2.0) - apen)
    return float(gammaincc(2.0 ** (m_pattern - 1), chi2 / 2.0))


def _reference_linear_complexity(b, m_blk):
    mu = (m_blk / 2.0 + (9.0 + (-1.0) ** (m_blk + 1)) / 36.0
          - (m_blk / 3.0 + 2.0 / 9.0) / 2.0**m_blk)
    num = len(b) // m_blk
    nu = np.zeros(7)
    for j in range(num):
        complexity = berlekamp_massey(b[j * m_blk : (j + 1) * m_blk])
        t = (-1.0) ** m_blk * (complexity - mu) + 2.0 / 9.0
        nu[int(np.searchsorted([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], t, side="left"))] += 1
    expected = num * _LC_PROBS
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    return float(gammaincc(3.0, chi2 / 2.0))


APERIODIC = ["0", "1", "01", "10", "001", "011", "0011", "0010111", "000000001", "111111110"]

streams = st.tuples(
    st.one_of(
        st.integers(50, 400),
        st.sampled_from([127, 128, 129, 6271, 6272, 6273, 800, 1000, 1600, 2000]),
        st.integers(400, 14000),
    ),
    st.sampled_from([0.0, 0.03, 0.3, 0.5, 0.5, 0.7, 0.97, 1.0]),
    st.integers(0, 2**32 - 1),
).map(lambda a: (np.random.default_rng(a[2]).random(a[0]) < a[1]).astype(np.uint8))


@given(streams, st.sampled_from(APERIODIC), st.integers(1, 12), st.integers(4, 70))
@settings(max_examples=60, deadline=None)
def test_block_tests_equal_per_bit_reference(bits, template, num_blocks, lc_block):
    n = len(bits)
    result = longest_run_test(bits)
    assert result.applicable == (n >= 128)
    if result.applicable:
        assert result.p_value == _reference_longest_run(bits)

    result = non_overlapping_template_test(bits, template=template, num_blocks=num_blocks)
    assert result.applicable == (n // num_blocks > len(template))
    if result.applicable:
        assert result.p_value == _reference_template(bits, template, num_blocks)

    lc_block = min(lc_block, max(4, n // 200))  # applicable from n = 800 on
    result = linear_complexity_test(bits, block_len=lc_block)
    assert result.applicable == (n // lc_block >= 200)
    if result.applicable:
        assert result.p_value == _reference_linear_complexity(bits, lc_block)


@given(streams, st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_approximate_entropy_equals_two_scan_reference(bits, m_pattern):
    n = len(bits)
    result = approximate_entropy_test(bits, m_pattern=m_pattern)
    assert result.applicable == (n >= max(100, 2 ** (m_pattern + 1)))
    if result.applicable:
        assert result.p_value == _reference_approximate_entropy(bits, m_pattern)


def _periodic_rows(rng, rows, m):
    return np.array([np.resize(rng.integers(0, 2, rng.integers(1, 33)), m)
                     for _ in range(rows)], dtype=np.uint8)


def _lfsr_rows(rng, rows, m):
    # random taps of degree <= 24 from a random state: complexity <= degree
    out = np.zeros((rows, m), dtype=np.uint8)
    for row in out:
        degree = int(rng.integers(1, 25))
        taps = rng.integers(0, 2, degree)
        taps[-1] = 1
        seq = rng.integers(0, 2, degree).tolist()
        while len(seq) < m:
            seq.append(int(taps @ seq[: -degree - 1 : -1]) & 1)
        row[:] = seq[:m]
    return out


BM_ROWS = {
    "random": lambda rng, rows, m: rng.integers(0, 2, (rows, m), dtype=np.uint8),
    "biased-0.03": lambda rng, rows, m: (rng.random((rows, m)) < 0.03).astype(np.uint8),
    "biased-0.97": lambda rng, rows, m: (rng.random((rows, m)) < 0.97).astype(np.uint8),
    "all-zero": lambda rng, rows, m: np.zeros((rows, m), dtype=np.uint8),
    "last-bit": lambda rng, rows, m: np.eye(1, m, m - 1, dtype=np.uint8).repeat(rows, axis=0),
    "periodic": _periodic_rows,
    "lfsr": _lfsr_rows,
}
# the lanes of one word in different states: row i of the kind i mod 7
_KINDS = list(BM_ROWS.values())
BM_ROWS["mixed"] = lambda rng, rows, m: np.concatenate(
    [_KINDS[i % len(_KINDS)](rng, 1, m) for i in range(rows)])


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 500, 1000])
@pytest.mark.parametrize("kind", BM_ROWS)
def test_linear_complexities_equal_per_block_reference(kind, m):
    rng = np.random.default_rng([list(BM_ROWS).index(kind), m])
    blocks = BM_ROWS[kind](rng, 201, m)
    want = [berlekamp_massey(row) for row in blocks]
    # every block count around the 64-lane word edges; fewer blocks are a prefix
    for num in (1, 63, 64, 65, 200, 201):
        got = linear_complexities(blocks[:num])
        assert got.dtype == np.int64 and got.shape == (num,)
        assert got.tolist() == want[:num], num


@given(st.integers(1, 260), st.integers(1, 700),
       st.lists(st.sampled_from(sorted(BM_ROWS)), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_linear_complexities_equal_bit_sliced_reference(num, m, kinds, seed):
    # row i is of kind i mod len(kinds), so the lanes of one word sit at
    # very different complexities
    rng = np.random.default_rng(seed)
    blocks = np.empty((num, m), dtype=np.uint8)
    for j, kind in enumerate(kinds[:num]):
        blocks[j :: len(kinds)] = BM_ROWS[kind](rng, len(range(j, num, len(kinds))), m)
    got = linear_complexities(blocks)
    assert got.dtype == np.int64 and got.shape == (num,)
    assert got.tolist() == _linear_complexities_reference(blocks).tolist()


@pytest.mark.parametrize("kind", ["random", "mixed"])
def test_linear_complexities_at_million_bit_shape(kind):
    # 2000 blocks of 500: the shape of linear_complexity_test on 10^6 bits
    blocks = BM_ROWS[kind](np.random.default_rng(2000), 2000, 500)
    assert (linear_complexities(blocks).tolist()
            == _linear_complexities_reference(blocks).tolist())


@pytest.mark.parametrize("call, name", [
    (lambda b: block_frequency_test(b, block_len=0), "block_len"),
    (lambda b: block_frequency_test(b, block_len=-5), "block_len"),
    (lambda b: linear_complexity_test(b, block_len=0), "block_len"),
    (lambda b: linear_complexity_test(b, block_len=-500), "block_len"),
    (lambda b: non_overlapping_template_test(b, num_blocks=0), "num_blocks"),
    (lambda b: non_overlapping_template_test(b, num_blocks=-8), "num_blocks"),
    (lambda b: approximate_entropy_test(b, m_pattern=-1), "m_pattern"),
])
def test_bad_test_parameters_raise_parameter_error(call, name):
    with pytest.raises(ParameterError, match=name):
        call(np.random.default_rng(0).integers(0, 2, 1000, dtype=np.uint8))


@pytest.mark.parametrize("block_len", [1, 2, 3])
def test_linear_complexity_short_blocks_inapplicable(block_len):
    bits = np.random.default_rng(0).integers(0, 2, 1000, dtype=np.uint8)
    assert not linear_complexity_test(bits, block_len=block_len).applicable


@given(st.integers(1, 6), st.integers(1, 40), st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
       st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_longest_runs_equal_per_row_loop(rows, cols, p, value, seed):
    grid = (np.random.default_rng(seed).random((rows, cols)) < p).astype(np.uint8)
    assert longest_runs(grid, value).tolist() == [_longest_run(row, value) for row in grid]


def test_import_does_not_load_scipy_stats():
    # importing scipy.stats takes over a second; the battery needs only
    # scipy.special
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, chirpkey; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

"""Eight SP 800-22 statistical randomness tests with a 0.01 pass gate.

Implemented: Frequency, Block Frequency, Cumulative Sums (forward), Longest
Run of Ones, Spectral (DFT), Non-overlapping Template, Approximate Entropy,
and Linear Complexity.  Each test returns a p-value; a sequence passes the
gate when every applicable test yields p >= 0.01.  Constants follow the
reference test suite so its published worked examples reproduce exactly.

The Non-overlapping Template test takes aperiodic templates only: no proper
prefix equals a suffix, so occurrences never overlap.  A periodic template
such as "11" or "0101" raises ParameterError.

The Linear Complexity test runs one bit-sliced Berlekamp-Massey over all
its blocks at once (``linear_complexities``): each uint64 word holds the
same bit of 64 blocks, and the shifted polynomial b x^k is a view into a
zeroed buffer whose start moves back one row per step, so multiplying by x
copies nothing.  The complexities are integers, so the p-value equals the
one-block-at-a-time reference exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincc, ndtr

from .errors import ParameterError
from .metrics import longest_runs
from .quantizer import as_bits

PASS_LEVEL = 0.01

TEST_NAMES = (
    "frequency",
    "block_frequency",
    "cumulative_sums",
    "longest_run",
    "spectral_fft",
    "non_overlapping_template",
    "approximate_entropy",
    "linear_complexity",
)

# longest-run parameterizations: (min n, block M, first class bound, class probs);
# the classes are the consecutive run lengths from the first bound on, with
# the first and last classes open-ended
_LONGEST_RUN_TABLE = (
    (750000, 10000, 10, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, 4, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, 1, (0.2148, 0.3672, 0.2305, 0.1875)),
)

# linear-complexity class probabilities as shipped in the reference suite
# (its first entry is 0.01047 rather than the rounded theoretical 0.010417;
# kept so the suite's worked example reproduces bit-for-bit)
_LC_PROBS = np.array([0.01047, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833])


@dataclass(frozen=True)
class TestResult:
    name: str
    p_value: float | None
    applicable: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.applicable and self.p_value is not None and self.p_value >= PASS_LEVEL


@dataclass(frozen=True)
class NistReport:
    results: tuple[TestResult, ...]

    @property
    def overall_pass(self) -> bool:
        applicable = [r for r in self.results if r.applicable]
        return bool(applicable) and all(r.passed for r in applicable)

    @property
    def insufficient_data(self) -> bool:
        return not any(r.applicable for r in self.results)

    def to_csv(self) -> str:
        lines = ["test_name,p_value,applicable,pass"]
        for r in self.results:
            p = "" if r.p_value is None else f"{r.p_value:.6f}"
            lines.append(f"{r.name},{p},{str(r.applicable).lower()},{str(r.passed).lower()}")
        return "\n".join(lines) + "\n"


def _inapplicable(name: str, note: str) -> TestResult:
    return TestResult(name, None, False, note)


def frequency_test(bits) -> TestResult:
    """Monobit balance: p = erfc(|S_n| / sqrt(2 n)) with S_n = sum(2 b - 1)."""
    b = as_bits(bits)
    n = len(b)
    if n < 100:
        return _inapplicable("frequency", f"needs n >= 100, got {n}")
    s = int(np.sum(2 * b.astype(np.int64) - 1))
    p = float(erfc(abs(s) / np.sqrt(2.0 * n)))
    return TestResult("frequency", p, True)


def block_frequency_test(bits, block_len: int = 128) -> TestResult:
    b = as_bits(bits)
    n = len(b)
    if n < 100 or n < block_len:
        return _inapplicable("block_frequency", f"needs n >= max(100, M), got {n}")
    num = n // block_len
    props = b[: num * block_len].reshape(num, block_len).mean(axis=1)
    chi2 = 4.0 * block_len * float(np.sum((props - 0.5) ** 2))
    p = float(gammaincc(num / 2.0, chi2 / 2.0))
    return TestResult("block_frequency", p, True)


def cumulative_sums_test(bits) -> TestResult:
    """Forward cumulative-sums excursion test."""
    b = as_bits(bits)
    n = len(b)
    if n < 100:
        return _inapplicable("cumulative_sums", f"needs n >= 100, got {n}")
    walk = np.cumsum(2 * b.astype(np.int64) - 1)
    z = int(np.max(np.abs(walk)))  # >= 1 for any non-empty sequence
    sn = np.sqrt(n)
    lo1 = int(np.floor((-n / z + 1) / 4))
    hi = int(np.floor((n / z - 1) / 4))
    lo2 = int(np.floor((-n / z - 3) / 4))
    ks1 = np.arange(lo1, hi + 1)
    ks2 = np.arange(lo2, hi + 1)
    term1 = np.sum(ndtr((4 * ks1 + 1) * z / sn) - ndtr((4 * ks1 - 1) * z / sn))
    term2 = np.sum(ndtr((4 * ks2 + 3) * z / sn) - ndtr((4 * ks2 + 1) * z / sn))
    p = float(1.0 - term1 + term2)
    return TestResult("cumulative_sums", float(np.clip(p, 0.0, 1.0)), True)


def longest_run_test(bits) -> TestResult:
    b = as_bits(bits)
    n = len(b)
    if n < 128:
        return _inapplicable("longest_run", f"needs n >= 128, got {n}")
    for min_n, m_blk, lo, probs in _LONGEST_RUN_TABLE:
        if n >= min_n:
            break
    num = n // m_blk
    runs = longest_runs(b[: num * m_blk].reshape(num, m_blk), 1)
    k = len(probs) - 1
    nu = np.bincount(np.clip(runs, lo, lo + k) - lo, minlength=k + 1)
    expected = num * np.asarray(probs)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    p = float(gammaincc(k / 2.0, chi2 / 2.0))
    return TestResult("longest_run", p, True)


def spectral_fft_test(bits) -> TestResult:
    """DFT peak-count test over the first n/2 magnitudes.

    The threshold is sqrt(n log(1/0.05)); under randomness 95% of
    magnitudes fall below it.
    """
    b = as_bits(bits)
    n = len(b)
    if n < 100:
        return _inapplicable("spectral_fft", f"needs n >= 100, got {n}")
    x = 2.0 * b.astype(np.float64) - 1.0
    mags = np.abs(np.fft.rfft(x))[: n // 2]
    threshold = np.sqrt(np.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.sum(mags < threshold))
    d = (n1 - n0) / np.sqrt(n * 0.95 * 0.05 / 4.0)
    p = float(erfc(abs(d) / np.sqrt(2.0)))
    return TestResult("spectral_fft", p, True)


def non_overlapping_template_test(
    bits,
    template: str = "000000001",
    num_blocks: int = 8,
) -> TestResult:
    b = as_bits(bits)
    n = len(b)
    m = len(template)
    if m == 0 or any(c not in "01" for c in template):
        raise ParameterError("template must be a non-empty string of 0/1")
    if any(template[:j] == template[-j:] for j in range(1, m)):
        raise ParameterError(f"template {template!r} overlaps itself; it must be aperiodic")
    block_len = n // num_blocks
    if block_len < m + 1:
        return _inapplicable(
            "non_overlapping_template",
            f"needs blocks longer than the template, got n={n}",
        )
    # occurrences of an aperiodic template never overlap, so the reference
    # scan, which skips past each hit, counts every occurrence in a block
    blocks = b[: num_blocks * block_len].reshape(num_blocks, block_len)
    width = block_len - m + 1
    hits = np.ones((num_blocks, width), dtype=bool)
    for j, c in enumerate(template):
        hits &= blocks[:, j : j + width] == int(c)
    counts = hits.sum(axis=1)
    mean = width / 2.0**m
    var = block_len * (1.0 / 2.0**m - (2.0 * m - 1.0) / 2.0 ** (2 * m))
    chi2 = float(np.sum((counts - mean) ** 2 / var))
    p = float(gammaincc(num_blocks / 2.0, chi2 / 2.0))
    return TestResult("non_overlapping_template", p, True)


def approximate_entropy_test(bits, m_pattern: int = 2) -> TestResult:
    b = as_bits(bits)
    n = len(b)
    need = max(100, 2 ** (m_pattern + 1))
    if n < need:
        return _inapplicable(
            "approximate_entropy", f"needs n >= max(100, 2^(m+1)) = {need}, got {n}"
        )

    def phi(m: int) -> float:
        if m == 0:
            return 0.0
        aug = np.concatenate([b, b[: m - 1]])
        # encode every overlapping m-bit pattern as an integer
        codes = np.zeros(n, dtype=np.int64)
        for j in range(m):
            codes = (codes << 1) | aug[j : j + n]
        counts = np.bincount(codes, minlength=2**m).astype(np.float64)
        freqs = counts[counts > 0] / n
        return float(np.sum(freqs * np.log(freqs)))

    apen = phi(m_pattern) - phi(m_pattern + 1)
    chi2 = 2.0 * n * (np.log(2.0) - apen)
    p = float(gammaincc(2.0 ** (m_pattern - 1), chi2 / 2.0))
    return TestResult("approximate_entropy", p, True)


def linear_complexities(blocks) -> np.ndarray:
    """Linear complexity of every row of a (num, m) 0/1 array, as int64.

    One Berlekamp-Massey run serves all rows, bit-sliced: rows are lanes,
    64 to a uint64 word, so every polynomial is an (m + 1, g) word array,
    g = ceil(num / 64), whose row j holds coefficient j of every lane.  Per
    step the discrepancy is the xor over rows of ``c & s`` reversed, and
    lanes whose complexity grows swap the old ``c`` into ``b``.  ``b`` is
    kept already multiplied by x^(idx - last change) as a view into one
    zeroed buffer; moving the view's start back one row each step
    multiplies every lane by x, so nothing is copied.  At step idx every
    polynomial has degree <= idx + 1, so each step touches idx + 2 rows.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    num, m = blocks.shape
    g = -(-num // 64)
    lanes = np.zeros((m, 64 * g), dtype=np.uint8)
    lanes[:, :num] = blocks.T
    # s[i] is bit i of every lane; lane k of word w is row 64 w + k
    s = np.packbits(lanes, axis=1, bitorder="little").view("<u8")
    ones = ~np.uint64(0)
    c = np.zeros((m + 1, g), dtype="<u8")
    c[0] = ones
    # b = 1 with its last change at -1, so b x^(idx + 1) at step idx
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


def linear_complexity_test(bits, block_len: int = 500) -> TestResult:
    b = as_bits(bits)
    n = len(b)
    num = n // block_len
    if block_len < 4 or num < 200:
        return _inapplicable(
            "linear_complexity", f"needs at least 200 blocks of {block_len}, got {n} bits"
        )
    m_blk = block_len
    mu = (
        m_blk / 2.0
        + (9.0 + (-1.0) ** (m_blk + 1)) / 36.0
        - (m_blk / 3.0 + 2.0 / 9.0) / 2.0**m_blk
    )
    blocks = b[: num * m_blk].reshape(num, m_blk)
    complexity = linear_complexities(blocks)
    t = (-1.0) ** m_blk * (complexity - mu) + 2.0 / 9.0
    nu = np.bincount(np.searchsorted([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], t), minlength=7)
    expected = num * _LC_PROBS
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    p = float(gammaincc(3.0, chi2 / 2.0))
    return TestResult("linear_complexity", p, True)


def run_suite(bits) -> NistReport:
    """All eight tests at their standard defaults, aggregated with the 0.01 gate."""
    b = as_bits(bits)
    return NistReport((
        frequency_test(b),
        block_frequency_test(b),
        cumulative_sums_test(b),
        longest_run_test(b),
        spectral_fft_test(b),
        non_overlapping_template_test(b),
        approximate_entropy_test(b),
        linear_complexity_test(b),
    ))

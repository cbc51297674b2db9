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
copies nothing.  The complexities are kept as Python-int lane masks
grouped by twice the complexity, so a step unpacks nothing, and a step
touches only the polynomial rows that the least and greatest complexity
allow to be nonzero.  The complexities are integers, so the p-value equals
the one-block-at-a-time reference exactly.  The Approximate Entropy test
takes its m-bit and (m+1)-bit pattern counts from one count of the
(m+1)-bit patterns.
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
    if block_len <= 0:
        raise ParameterError(f"block_len must be positive, got {block_len}")
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
    if num_blocks <= 0:
        raise ParameterError(f"num_blocks must be positive, got {num_blocks}")
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
    """ApEn(m) = phi(m) - phi(m + 1) over the wraparound m- and (m+1)-bit patterns.

    One ``bincount`` of the (m+1)-bit codes serves both: the top m bits of
    the (m+1)-bit window at i are the m-bit window at i, so the m-bit counts
    are the sums of adjacent count pairs.  The integer counts are those of
    two separate scans, so the p-value is too; phi(0) is 0.
    """
    if m_pattern < 0:
        raise ParameterError(f"m_pattern must be >= 0, got {m_pattern}")
    b = as_bits(bits)
    n = len(b)
    need = max(100, 2 ** (m_pattern + 1))
    if n < need:
        return _inapplicable(
            "approximate_entropy", f"needs n >= max(100, 2^(m+1)) = {need}, got {n}"
        )
    aug = np.concatenate([b, b[:m_pattern]])
    codes = aug[:n].astype(np.uint8 if m_pattern < 8 else np.intp)
    for j in range(1, m_pattern + 1):
        codes <<= 1
        codes |= aug[j : j + n]
    counts = np.bincount(codes, minlength=2 ** (m_pattern + 1))

    def phi(counts: np.ndarray) -> float:
        freqs = counts[counts > 0] / n
        return float(np.sum(freqs * np.log(freqs)))

    apen = phi(counts.reshape(-1, 2).sum(axis=1)) - phi(counts)
    chi2 = 2.0 * n * (np.log(2.0) - apen)
    p = float(gammaincc(2.0 ** (m_pattern - 1), chi2 / 2.0))
    return TestResult("approximate_entropy", p, True)


def linear_complexities(blocks) -> np.ndarray:
    """Linear complexity of every row of a (num, m) 0/1 array, as int64.

    One Berlekamp-Massey run serves all rows, bit-sliced: rows are lanes,
    64 to a uint64 word, so every polynomial is an (m + 1, g) word array,
    g = ceil(num / 64), whose row j holds coefficient j of every lane.  Per
    step the discrepancy d is the xor over rows of ``c & s`` reversed; lanes
    with d set add ``b`` to ``c``, and those eligible to grow (2 L <= idx)
    also take the old ``c`` into ``b``.  Since d is 1 on growing lanes, the
    old ``c`` is the new ``c ^ b``, so the update is ``c ^= b & d`` then
    ``b ^= c & grow``.  ``b`` is kept already multiplied by x^(idx - last
    change) as a view into one zeroed buffer whose start moves back one row
    per step, so multiplying by x copies nothing.

    The complexities live as Python-int lane masks grouped by T = 2 L, the
    step from which a lane may grow: ``ready`` holds the groups with T <=
    idx, ``pending`` the rest, and a pending group joins ``ready`` at step
    T.  A lane that grows at step idx moves from group T to 2 idx + 2 - T,
    as L becomes idx + 1 - L.  With lo and hi the least and greatest L, c
    has degree <= hi and the shifted b degree <= idx + 1 - lo, so the
    discrepancy reads rows <= hi and the update rows <= max(hi, idx + 1 -
    lo); every row past them is zero in every lane, so skipping them
    changes no bit.  All of this is integer arithmetic, so the result
    equals the one-block-at-a-time reference exactly.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    num, m = blocks.shape
    g = -(-num // 64)
    nbytes = 8 * g
    lanes = np.zeros((m, 64 * g), dtype=np.uint8)
    lanes[:, :num] = blocks.T[::-1]
    # s_rev[m - 1 - i] is bit i of every lane; lane k of word w is row 64 w + k
    s_rev = np.packbits(lanes, axis=1, bitorder="little").view("<u8")
    real = (1 << num) - 1  # the padding lanes stay zero throughout
    c = np.zeros((m + 1, g), dtype="<u8")
    c[0] = np.frombuffer(real.to_bytes(nbytes, "little"), dtype="<u8")
    # b = 1 with its last change at -1, so b x^(idx + 1) at step idx
    b_buf = np.zeros((m + 2, g), dtype="<u8")
    b_buf[m + 1] = c[0]
    scratch = np.empty((m + 1, g), dtype="<u8")
    ready, pending = {0: real}, {}
    eligible = real
    lo = hi = 0
    for idx in range(m):
        woke = pending.pop(idx, 0)
        if woke:
            ready[idx] = woke
            eligible |= woke
        rows = hi + 1
        t = np.bitwise_and(c[:rows], s_rev[m - 1 - idx : m - idx + hi], out=scratch[:rows])
        d = np.bitwise_xor.reduce(t, axis=0).tobytes()
        d_int = int.from_bytes(d, "little")
        if not d_int:
            continue
        rows = max(hi, idx + 1 - lo) + 1
        cs, bs, t = c[:rows], b_buf[m - idx : m - idx + rows], scratch[:rows]
        # lane masks enter as whole (rows, g) tiles: a broadcast (g,) operand
        # costs numpy one inner loop per row
        cs ^= np.bitwise_and(bs, np.ndarray((rows, g), "<u8", d * rows), out=t)
        grow = d_int & eligible
        if not grow:
            continue
        grow_words = np.ndarray((rows, g), "<u8", grow.to_bytes(nbytes, "little") * rows)
        bs ^= np.bitwise_and(cs, grow_words, out=t)
        eligible ^= grow
        for twice_l, mask in list(ready.items()):
            moved = mask & grow
            if moved:
                if moved == mask:
                    del ready[twice_l]
                else:
                    ready[twice_l] = mask ^ moved
                grown = 2 * idx + 2 - twice_l
                pending[grown] = pending.get(grown, 0) | moved
        lo = min(ready or pending) // 2
        hi = max(pending or ready) // 2
    complexity = np.zeros(64 * g, dtype=np.int64)
    for twice_l, mask in (*ready.items(), *pending.items()):
        lanes_in = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
        complexity[np.unpackbits(lanes_in, bitorder="little").view(bool)] = twice_l // 2
    return complexity[:num]


def linear_complexity_test(bits, block_len: int = 500) -> TestResult:
    if block_len <= 0:
        raise ParameterError(f"block_len must be positive, got {block_len}")
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

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
same bit of 64 blocks.  It keeps the residuals C S and B S of the stream
in place of the polynomials C and B: the discrepancy at step n is
coefficient n of C S, so a step reads it from one residual row, with no
reduce over rows, and the shifted B S that later steps read sits in one
fixed array, so multiplying by x copies nothing.  The complexities are kept
as Python-int lane masks grouped by twice the complexity, so a step
unpacks nothing.  The complexities are integers, so the p-value equals
the one-block-at-a-time reference exactly.  The Approximate Entropy test
takes its m-bit and (m+1)-bit pattern counts from one count of the
(m+1)-bit patterns.

The p-value functions come from ``scipy.special``, imported inside the
tests that call them: the battery loads it on first use, and ``import
chirpkey`` loads no scipy.

``run_suite`` runs the Spectral test on one helper thread while the calling
thread runs the other seven.  Spectral is the one that overlaps: its time
is one ``rfft`` and whole-array ufuncs, native kernels that release the
GIL, where Linear Complexity's is Python-level step overhead that would
contend with the caller.  The helper is joined before the call returns or
raises, so no thread outlives it.  The battery keeps no state between
calls and each test reads only the stream, so every p-value is the one the
tests give one by one, whatever the threads' timing.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .metrics import longest_runs
from .quantizer import as_bits

PASS_LEVEL = 0.01

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
    note: str = ""

    @property
    def applicable(self) -> bool:
        return self.p_value is not None

    @property
    def passed(self) -> bool:
        return self.applicable and self.p_value >= PASS_LEVEL


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


def frequency_test(bits) -> TestResult:
    """Monobit balance: p = erfc(|S_n| / sqrt(2 n)) with S_n = sum(2 b - 1) = 2 ones - n."""
    b = as_bits(bits)
    n = len(b)
    if n < 100:
        return TestResult("frequency", None, f"needs n >= 100, got {n}")
    s = 2 * int(np.count_nonzero(b)) - n
    from scipy.special import erfc
    p = float(erfc(abs(s) / np.sqrt(2.0 * n)))
    return TestResult("frequency", p)


def block_frequency_test(bits, block_len: int = 128) -> TestResult:
    if block_len <= 0:
        raise ParameterError(f"block_len must be positive, got {block_len}")
    b = as_bits(bits)
    n = len(b)
    if n < 100 or n < block_len:
        return TestResult("block_frequency", None, f"needs n >= max(100, M), got {n}")
    num = n // block_len
    props = b[: num * block_len].reshape(num, block_len).mean(axis=1)
    chi2 = 4.0 * block_len * float(np.sum((props - 0.5) ** 2))
    from scipy.special import gammaincc
    p = float(gammaincc(num / 2.0, chi2 / 2.0))
    return TestResult("block_frequency", p)


def cumulative_sums_test(bits) -> TestResult:
    """Forward cumulative-sums excursion test."""
    b = as_bits(bits)
    n = len(b)
    if n < 100:
        return TestResult("cumulative_sums", None, f"needs n >= 100, got {n}")
    # one walk buffer, in place; |walk| <= n, so int32 is exact below 2^31
    walk = b.astype(np.int32 if n < 2**31 else np.int64)
    walk <<= 1
    walk -= 1
    np.cumsum(walk, out=walk)
    z = max(int(walk.max()), -int(walk.min()))  # >= 1 for any non-empty sequence
    sn = np.sqrt(n)
    lo1 = int(np.floor((-n / z + 1) / 4))
    hi = int(np.floor((n / z - 1) / 4))
    lo2 = int(np.floor((-n / z - 3) / 4))
    ks1 = np.arange(lo1, hi + 1)
    ks2 = np.arange(lo2, hi + 1)
    from scipy.special import ndtr
    term1 = np.sum(ndtr((4 * ks1 + 1) * z / sn) - ndtr((4 * ks1 - 1) * z / sn))
    term2 = np.sum(ndtr((4 * ks2 + 3) * z / sn) - ndtr((4 * ks2 + 1) * z / sn))
    p = float(1.0 - term1 + term2)
    return TestResult("cumulative_sums", float(np.clip(p, 0.0, 1.0)))


def longest_run_test(bits) -> TestResult:
    b = as_bits(bits)
    n = len(b)
    if n < 128:
        return TestResult("longest_run", None, f"needs n >= 128, got {n}")
    for min_n, m_blk, lo, probs in _LONGEST_RUN_TABLE:
        if n >= min_n:
            break
    num = n // m_blk
    runs = longest_runs(b[: num * m_blk].reshape(num, m_blk), 1)
    k = len(probs) - 1
    nu = np.bincount(np.clip(runs, lo, lo + k) - lo, minlength=k + 1)
    expected = num * np.asarray(probs)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    from scipy.special import gammaincc
    p = float(gammaincc(k / 2.0, chi2 / 2.0))
    return TestResult("longest_run", p)


def spectral_fft_test(bits) -> TestResult:
    """DFT peak-count test over the first n/2 magnitudes.

    The threshold is sqrt(n log(1/0.05)); under randomness 95% of
    magnitudes fall below it.
    """
    b = as_bits(bits)
    n = len(b)
    if n < 100:
        return TestResult("spectral_fft", None, f"needs n >= 100, got {n}")
    x = np.multiply(b, 2.0)
    x -= 1.0
    mags = np.abs(np.fft.rfft(x)[: n // 2], out=x[: n // 2])
    threshold = np.sqrt(np.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(mags < threshold))
    d = (n1 - n0) / np.sqrt(n * 0.95 * 0.05 / 4.0)
    from scipy.special import erfc
    p = float(erfc(abs(d) / np.sqrt(2.0)))
    return TestResult("spectral_fft", p)


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
        return TestResult(
            "non_overlapping_template", None,
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
    from scipy.special import gammaincc
    p = float(gammaincc(num_blocks / 2.0, chi2 / 2.0))
    return TestResult("non_overlapping_template", p)


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
        return TestResult(
            "approximate_entropy", None, f"needs n >= max(100, 2^(m+1)) = {need}, got {n}"
        )
    # intp codes, so bincount casts no copy; the window at i wraps past the end
    codes = b.astype(np.intp)
    for j in range(1, m_pattern + 1):
        codes <<= 1
        codes[: n - j] |= b[j:]
        codes[n - j :] |= b[:j]
    counts = np.bincount(codes, minlength=2 ** (m_pattern + 1))

    def phi(counts: np.ndarray) -> float:
        freqs = counts[counts > 0] / n
        return float(np.sum(freqs * np.log(freqs)))

    apen = phi(counts.reshape(-1, 2).sum(axis=1)) - phi(counts)
    chi2 = 2.0 * n * (np.log(2.0) - apen)
    from scipy.special import gammaincc
    p = float(gammaincc(2.0 ** (m_pattern - 1), chi2 / 2.0))
    return TestResult("approximate_entropy", p)


def linear_complexities(blocks) -> np.ndarray:
    """Linear complexity of every row of a (num, m) 0/1 array, as int64.

    One Berlekamp-Massey run serves all rows, bit-sliced: rows are lanes,
    64 to a uint64 word, so a length-m series is an (m, g) word array,
    g = ceil(num / 64), whose row j holds coefficient j of every lane.  The
    run keeps the residuals R_C = C S and R_B = (x^(idx - last change) B) S
    of the stream S in place of the polynomials C and B, which it never
    needs.  The discrepancy at step idx is sum_i c_i s_(idx - i), which is
    coefficient idx of C S, so it is one row, ``rc[idx]``: no AND and no
    reduce over rows.  Lanes with d set add R_B to R_C; those eligible to
    grow (2 L <= idx) also take the old R_C into R_B.  Since d is 1 on
    growing lanes, the old R_C is the new ``rc ^ rb``, so the update is
    ``rc ^= rb & d`` then ``rb ^= rc & grow``, both on coefficients past
    idx, the only ones later steps read.  R_B is multiplied by x once per
    step, so coefficient idx + 1 + j of R_B at step idx is coefficient
    idx + 2 + j at step idx + 1: row j of one fixed array ``rb`` holds it
    at every step, its frame moving with idx, and no view has to move.
    B = 1 with its last change at -1 gives R_B = x S, so ``rb`` starts as
    the stream itself, as does ``rc`` (C = 1).

    The complexities live as Python-int lane masks grouped by T = 2 L, the
    step from which a lane may grow: ``ready`` holds the groups with T <=
    idx, ``pending`` the rest, and a pending group joins ``ready`` at step
    T.  A lane that grows at step idx moves from group T to 2 idx + 2 - T,
    as L becomes idx + 1 - L.  All of this is integer arithmetic, so the
    result equals the one-block-at-a-time reference exactly.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    num, m = blocks.shape
    g = -(-num // 64)
    nbytes = 8 * g
    lanes = np.zeros((m, 64 * g), dtype=np.uint8)
    lanes[:, :num] = blocks.T
    # rc[i] is bit i of every lane; lane k of word w is row 64 w + k
    rc = np.packbits(lanes, axis=1, bitorder="little").view("<u8")
    rb = rc.copy()
    scratch = np.empty((m, g), dtype="<u8")
    real = (1 << num) - 1  # the padding lanes stay zero throughout
    ready, pending = {0: real}, {}
    eligible = real
    for idx in range(m):
        woke = pending.pop(idx, 0)
        if woke:
            ready[idx] = woke
            eligible |= woke
        d = rc[idx].tobytes()
        d_int = int.from_bytes(d, "little")
        if not d_int:
            continue
        rows = m - 1 - idx
        cs, bs, t = rc[idx + 1 :], rb[:rows], scratch[:rows]
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
    if block_len < 4:
        return TestResult("linear_complexity", None, f"needs block_len >= 4, got {block_len}")
    if num < 200:
        return TestResult(
            "linear_complexity", None, f"needs at least 200 blocks of {block_len}, got {n} bits"
        )
    m_blk = block_len
    mu = (
        m_blk / 2.0
        + (9.0 + (-1.0) ** (m_blk + 1)) / 36.0
        - math.ldexp(m_blk / 3.0 + 2.0 / 9.0, -m_blk)  # 2.0**M overflows from M = 1024
    )
    blocks = b[: num * m_blk].reshape(num, m_blk)
    complexity = linear_complexities(blocks)
    t = (-1.0) ** m_blk * (complexity - mu) + 2.0 / 9.0
    nu = np.bincount(np.searchsorted([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], t), minlength=7)
    expected = num * _LC_PROBS
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    from scipy.special import gammaincc
    p = float(gammaincc(3.0, chi2 / 2.0))
    return TestResult("linear_complexity", p)


TESTS = (
    frequency_test,
    block_frequency_test,
    cumulative_sums_test,
    longest_run_test,
    spectral_fft_test,
    non_overlapping_template_test,
    approximate_entropy_test,
    linear_complexity_test,
)
TEST_NAMES = tuple(t.__name__.removesuffix("_test") for t in TESTS)


def _record(outcomes: dict, test, b: np.ndarray) -> bool:
    """Store ``test(b)``, or the exception it raised, under ``test``; True if it returned."""
    try:
        outcomes[test] = test(b)
    except Exception as exc:  # raised again by run_suite, in TESTS order
        outcomes[test] = exc
        return False
    return True


def run_suite(bits) -> NistReport:
    """All eight tests at their standard defaults, aggregated with the 0.01 gate.

    The Spectral test runs on one helper thread, since its ``rfft`` and
    ufuncs release the GIL, while this thread runs the other seven in
    ``TESTS`` order.  The helper is joined before the call returns or
    raises.  Each test reads only the stream, so the results are those of
    the eight tests called one by one, whatever the threads' timing, and so
    is a failure: the exception raised
    is the one from the earliest test in ``TESTS`` order that raised.
    """
    b = as_bits(bits)
    outcomes: dict = {}
    helper = threading.Thread(target=_record, args=(outcomes, spectral_fft_test, b),
                              name="nist-spectral")
    helper.start()
    try:
        for test in TESTS:
            if test is not spectral_fft_test and not _record(outcomes, test, b):
                break  # as the battery run one by one stops at its first failure
    finally:
        helper.join()
    for test in TESTS:
        if isinstance(outcomes[test], Exception):
            raise outcomes[test]
    return NistReport(tuple(outcomes[test] for test in TESTS))

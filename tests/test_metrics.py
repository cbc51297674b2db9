import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chirpkey import BitKey, ParameterError, max_run_lengths, skdr
from chirpkey.metrics import report

from conftest import bits_from

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=200).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


def test_skdr_basics():
    a = BitKey(bits_from("10110011"))
    assert skdr(a, a) == 0.0
    assert skdr(a, BitKey(1 - a.bits)) == 1.0
    one_off = a.bits.copy()
    one_off[3] ^= 1
    assert skdr(a, BitKey(one_off)) == pytest.approx(0.125)


def test_skdr_rejects_mismatch_and_empty():
    with pytest.raises(ParameterError):
        skdr(BitKey(bits_from("101")), BitKey(bits_from("10")))
    with pytest.raises(ParameterError):
        skdr(BitKey(np.array([], dtype=np.uint8)), BitKey(np.array([], dtype=np.uint8)))


@given(bit_arrays, bit_arrays)
def test_skdr_symmetric_and_bounded(a_bits, g_bits):
    n = min(len(a_bits), len(g_bits))
    a, g = BitKey(a_bits[:n]), BitKey(g_bits[:n])
    assert skdr(a, g) == skdr(g, a)
    assert 0.0 <= skdr(a, g) <= 1.0


@given(bit_arrays, bit_arrays, bit_arrays)
def test_skdr_triangle_inequality(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = BitKey(xs[:n]), BitKey(ys[:n]), BitKey(zs[:n])
    assert skdr(a, c) <= skdr(a, b) + skdr(b, c) + 1e-12


@given(bit_arrays, bit_arrays)
def test_skdr_equals_bruteforce_hamming(a_bits, g_bits):
    n = min(len(a_bits), len(g_bits))
    a, g = a_bits[:n], g_bits[:n]
    distance = sum(1 for x, y in zip(a.tolist(), g.tolist()) if x != y)
    assert skdr(BitKey(a), BitKey(g)) == pytest.approx(distance / n)


def test_skgr_bits_per_probe():
    key = BitKey(np.resize([0, 1, 1], 367))
    assert report(key, key).skgr_bits_per_probe == 367
    assert report(key, key, probes=5).skgr_bits_per_probe == 367 / 5
    with pytest.raises(ParameterError):
        report(key, key, probes=0)


def test_max_run_lengths_examples():
    assert max_run_lengths(bits_from("0001100")) == (3, 2)
    assert max_run_lengths(np.ones(10, dtype=np.uint8)) == (0, 10)
    assert max_run_lengths(np.tile([0, 1], 50)) == (1, 1)
    with pytest.raises(ParameterError):
        max_run_lengths(np.array([], dtype=np.uint8))


@given(bit_arrays)
def test_max_run_complement_swaps(bits):
    l0, l1 = max_run_lengths(bits)
    swapped = max_run_lengths(1 - bits)
    assert swapped == (l1, l0)
    assert l0 <= len(bits) and l1 <= len(bits)


@given(bit_arrays)
def test_max_run_matches_bruteforce(bits):
    best = {0: 0, 1: 0}
    run_val, run_len = bits[0], 0
    for b in bits.tolist():
        if b == run_val:
            run_len += 1
        else:
            best[int(run_val)] = max(best[int(run_val)], run_len)
            run_val, run_len = b, 1
    best[int(run_val)] = max(best[int(run_val)], run_len)
    assert max_run_lengths(bits) == (best[0], best[1])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpkey import (
    ParameterError,
    QuantizerConfig,
    censoring_exchange,
    quantize,
    quantize_pipeline,
    shuffle,
    skdr,
)
from chirpkey.metrics import max_run_lengths
from chirpkey.reconciliation import LocalParityOracle
from chirpkey.quantizer import BitKey, block_thresholds

amplitude_arrays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=300,
).map(lambda xs: np.array(xs))


@given(amplitude_arrays, st.integers(min_value=0, max_value=2**31))
def test_shuffle_is_a_permutation(values, seed):
    out = shuffle(values, seed)
    assert sorted(out.tolist()) == sorted(values.tolist())


@given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=2**31))
def test_shuffle_shared_rule_aligns_positions(n, seed):
    # applying the same seed to paired vectors keeps pairs aligned
    base = np.arange(n, dtype=float)
    a = shuffle(base, seed)
    g = shuffle(base + 1000.0, seed)
    np.testing.assert_array_equal(g - a, 1000.0)


def test_shuffle_length_one_is_identity():
    amps = np.array([3.5])
    np.testing.assert_array_equal(shuffle(amps, 99), amps)


def test_shuffle_is_the_seeded_draw():
    for seed, n in ((0, 1), (7, 128), (2**40 + 3, 512), (7, 129), (123456789, 2048)):
        want = np.random.default_rng(seed).permutation(n)
        np.testing.assert_array_equal(shuffle(np.arange(n), seed), want)
        # every row of a stack moves by the same draw
        np.testing.assert_array_equal(shuffle(np.arange(3 * n).reshape(3, n), seed),
                                      np.arange(0, 3 * n, n)[:, None] + want)


def _one_block(values, alpha: float) -> tuple[float, float]:
    """(q_plus, q_minus) of a vector that forms exactly one block."""
    th = block_thresholds(np.asarray(values, dtype=float),
                          QuantizerConfig(alpha=alpha, block_size=len(values)))
    assert th.shape[1] == 1
    return th[0, 0], th[1, 0]


def test_thresholds_constant_block():
    q_plus, q_minus = _one_block([4.2] * 10, alpha=1.5)
    assert q_plus == q_minus == pytest.approx(4.2)


def test_thresholds_worked_example():
    q_plus, q_minus = _one_block([1, 2, 3, 4, 5], alpha=0.5)
    # population std of 1..5 is sqrt(2)
    assert q_plus == pytest.approx(3 + 0.5 * np.sqrt(2), abs=1e-12)
    assert q_minus == pytest.approx(3 - 0.5 * np.sqrt(2), abs=1e-12)


def test_thresholds_alpha_zero_collapse():
    q_plus, q_minus = _one_block([1.0, 9.0], alpha=0.0)
    assert q_plus == q_minus == pytest.approx(5.0)


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=2, max_value=130),
    st.sampled_from([0.0, 0.5, 1.3]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200)
def test_block_thresholds_equal_per_slice_numpy(n, m, alpha, constant, seed):
    values = np.random.default_rng(seed).rayleigh(size=n)
    if constant:  # every block repeats one value, whose mean need not be exact
        values = np.repeat(values[::m], m)[:n]
    th = block_thresholds(values, QuantizerConfig(alpha=alpha, block_size=m))
    want_plus, want_minus = [], []
    for start in range(0, n, m):
        block = values[start : start + m]
        if np.all(block == block[0]):
            want_plus.append(block[0])
            want_minus.append(block[0])
            continue
        want_plus.append(np.mean(block) + alpha * np.std(block))
        want_minus.append(np.mean(block) - alpha * np.std(block))
    assert th[0].tolist() == want_plus
    assert th[1].tolist() == want_minus


def test_block_thresholds_reject_crossed_or_ragged_arrays():
    # four values at m = 4 are one block, so quantize takes only a (2, 1)
    # array with q_minus <= q_plus
    amps, retained = np.array([1.0, 9.0, 2.0, 8.0]), np.arange(4)
    quantize(amps, retained, np.array([[6.0], [4.0]]), "plain", 4)
    for crossed_or_ragged in ([[4.0], [6.0]], [[6.0, 7.0], [4.0, 5.0]], [[6.0]]):
        with pytest.raises(ParameterError):
            quantize(amps, retained, np.array(crossed_or_ragged), "plain", 4)


_GOOD = np.array([1.0, 9.0, 2.0, 8.0])


def _rows(v, row: int) -> list:
    """A, G and a listener on _GOOD, with ``v`` in place of one row."""
    rows = [_GOOD] * 3
    rows[row] = v
    return rows


_PARTY_STEPS = {
    "block_thresholds": lambda v: block_thresholds(v, QuantizerConfig(block_size=4)),
    "censoring_exchange": lambda v: censoring_exchange(v, _GOOD, QuantizerConfig(block_size=4)),
    "censoring_exchange-g": lambda v: censoring_exchange(_GOOD, v, QuantizerConfig(block_size=4)),
    "quantize": lambda v: quantize(v, np.arange(4), np.array([[6.0], [4.0]]),
                                   "plain", 4),
    "quantize_pipeline": lambda v: quantize_pipeline(_rows(v, 0), QuantizerConfig(block_size=4)),
    "quantize_pipeline-g": lambda v: quantize_pipeline(_rows(v, 1),
                                                       QuantizerConfig(block_size=4)),
    # the eavesdropper's row
    "listener_key": lambda v: quantize_pipeline(_rows(v, 2), QuantizerConfig(block_size=4)),
}
_BAD_AMPLITUDES = {
    "nan": np.array([1.0, np.nan, 2.0, 8.0]),
    "+inf": np.array([1.0, np.inf, 2.0, 8.0]),
    "-inf": np.array([1.0, -np.inf, 2.0, 8.0]),
    "negative": np.array([1.0, -0.5, 2.0, 8.0]),
    "empty": np.array([]),
    "2-d": np.ones((2, 4)),
}


@pytest.mark.parametrize("values", _BAD_AMPLITUDES.values(), ids=_BAD_AMPLITUDES.keys())
@pytest.mark.parametrize("step", _PARTY_STEPS.values(), ids=_PARTY_STEPS.keys())
def test_quantizer_entries_reject_bad_amplitudes(step, values):
    # every entry that reads amplitudes checks them (shuffle leaves that to
    # the step after it); the same call on good values goes through.  In the
    # stacked call a row of another shape is rows of unequal length
    step(_GOOD)
    with pytest.raises(ParameterError):
        step(values)


_BAD_STACKS = {
    "empty": np.empty((0, 4)),
    "empty-rows": np.empty((3, 0)),
    "1-d": _GOOD,
    "3-d": np.ones((3, 2, 4)),
    "single-row": _GOOD[None],
}


@pytest.mark.parametrize("amps", _BAD_STACKS.values(), ids=_BAD_STACKS.keys())
def test_quantize_pipeline_rejects_what_is_not_two_or_more_rows(amps):
    quantize_pipeline([_GOOD, _GOOD], QuantizerConfig(block_size=4))
    with pytest.raises(ParameterError):
        quantize_pipeline(amps, QuantizerConfig(block_size=4))


_SHUFFLED = shuffle(_GOOD, 0)
_RETAINED_STEPS = {
    "quantize": lambda r: quantize(_GOOD, r, np.array([[6.0], [4.0]]), "plain", 4),
    # the eavesdropper's one-party steps as perfbench's traced round takes
    # them: the shared shuffle, its own thresholds, the overheard positions
    "listener_key": lambda r: quantize(
        _SHUFFLED, r, block_thresholds(_SHUFFLED, QuantizerConfig(block_size=4)), "plain", 4),
}
_BAD_RETAINED = {
    "repeated": [0, 2, 2],
    "decreasing": [0, 3, 1],
    "negative": [-1, 0, 2],
    "past-end": [0, 1, 4],
    "2-d": [[0, 1], [2, 3]],
}


@pytest.mark.parametrize("positions", _BAD_RETAINED.values(), ids=_BAD_RETAINED.keys())
@pytest.mark.parametrize("step", _RETAINED_STEPS.values(), ids=_RETAINED_STEPS.keys())
def test_quantizer_entries_reject_bad_retained_positions(step, positions):
    # the entries that read retained positions check them; every strictly
    # increasing 1-d selection within the amplitudes, empty too, goes through
    for good in ([], [3], [0, 1, 2, 3], [1, 3]):
        assert len(step(np.array(good, dtype=np.intp))) == len(good)
    with pytest.raises(ParameterError):
        step(np.array(positions))


def test_censoring_identical_inputs_alpha_zero_retains_all():
    amps = np.array([5.0, 1.0, 8.0, 9.0, 2.0, 7.0])
    retained, _, _ = censoring_exchange(amps, amps, QuantizerConfig(alpha=0.0, block_size=6))
    np.testing.assert_array_equal(retained, np.arange(6))


def test_censoring_worked_example():
    amps = np.array([0.0, 10.0, 5.01, 10.0, 0.0])
    cfg = QuantizerConfig(alpha=0.5, block_size=5)
    retained, th_a, _ = censoring_exchange(amps, amps, cfg)
    block = amps
    assert th_a[0, 0] == pytest.approx(block.mean() + 0.5 * block.std())
    assert retained.dtype == np.intp
    np.testing.assert_array_equal(retained, [0, 1, 3, 4])


@given(
    st.integers(min_value=2, max_value=128),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50)
def test_retained_sets_identical_for_adversarial_inputs(m, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    amps_a = rng.rayleigh(size=n)
    amps_g = rng.rayleigh(size=n)  # unrelated on purpose
    cfg = QuantizerConfig(alpha=0.5, block_size=m)
    retained, th_a, th_g = censoring_exchange(amps_a, amps_g, cfg)
    assert retained.dtype == np.intp and retained.ndim == 1
    assert np.all(np.diff(retained) > 0)
    key_a = quantize(amps_a, retained, th_a, "plain", block_size=m)
    key_g = quantize(amps_g, retained, th_g, "plain", block_size=m)
    assert len(key_a) == len(key_g) == len(retained)


def test_censoring_length_mismatch():
    a = np.ones(4)
    g = np.ones(5)
    with pytest.raises(ParameterError):
        censoring_exchange(a, g, QuantizerConfig())


def test_quantize_plain_and_dgray():
    amps = np.array([9.0, 1.0, 9.0])
    retained = np.arange(3)
    th = np.array([[6.0], [4.0]])
    plain = quantize(amps, retained, th, "plain", block_size=3)
    np.testing.assert_array_equal(plain.bits, [1, 0, 1])
    with pytest.raises(ParameterError, match="d-gray"):
        quantize(amps, retained, th, "d-gray", 3)


def test_quantize_gap_values_map_to_nearest_threshold():
    th = np.array([[6.0], [4.0]])
    retained = np.arange(3)
    amps = np.array([4.5, 5.0, 5.5])
    bits = quantize(amps, retained, th, "plain", block_size=3)
    # 4.5 is nearer the lower threshold; the exact midpoint 5.0 ties to 1
    np.testing.assert_array_equal(bits.bits, [0, 1, 1])


def test_quantize_zero_spread_block():
    th = np.array([[5.0], [5.0]])
    retained = np.arange(2)
    bits = quantize(np.array([5.0, 4.99]), retained, th, "plain", block_size=2)
    np.testing.assert_array_equal(bits.bits, [1, 0])


def _three_way_bits(v, qp, qm):
    """The rule spelled per region: 1 at or past q_plus, 0 at or past
    q_minus, the nearer threshold (ties to 1) in between."""
    return np.where(v >= qp, 1, np.where(v <= qm, 0, (qp - v) <= (v - qm))).astype(np.uint8)


non_negative = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(st.lists(st.tuples(non_negative, non_negative, non_negative,
                          st.sampled_from(["free", "at q_plus", "at q_minus", "no gap"])),
                min_size=1, max_size=50))
@settings(max_examples=300)
def test_quantize_nearer_threshold_equals_three_way_rule(cases):
    # one value per block, each case with its own thresholds
    values, q_plus, q_minus = [], [], []
    for x, y, v, kind in cases:
        qm, qp = sorted((x, y))
        if kind == "no gap":
            qm = qp
        values.append({"at q_plus": qp, "at q_minus": qm}.get(kind, v))
        q_plus.append(qp)
        q_minus.append(qm)
    v, qp, qm = np.array(values), np.array(q_plus), np.array(q_minus)
    bits = quantize(v, np.arange(len(v)),
                    np.array([qp, qm]), "plain", block_size=1).bits
    assert (bits == _three_way_bits(v, qp, qm)).all()


def test_quantize_takes_the_block_size_of_its_thresholds():
    # 100 values in blocks of 50 give 2 threshold pairs, as ceil(100 / 64)
    # does, so the pair count alone cannot tell m = 50 from m = 64; the
    # second block sits higher, so at m = 64 values 50..63 are cut at the
    # first block's thresholds and all read 1
    rng = np.random.default_rng(24)
    amps = np.concatenate([rng.rayleigh(size=50), 10 + rng.rayleigh(size=50)])
    retained, th, _ = censoring_exchange(amps, amps, QuantizerConfig(block_size=50))
    assert th.shape[1] == 2 == -(-100 // 64)
    with pytest.raises(TypeError):
        quantize(amps, retained, th, "plain")
    at_50 = quantize(amps, retained, th, "plain", 50).bits
    assert (at_50 != quantize(amps, retained, th, "plain", 64).bits).any()


def test_pipeline_identical_amplitudes_agree_with_and_without_shuffle():
    rng = np.random.default_rng(17)
    amps = rng.rayleigh(size=512)
    for shuffle_on in (True, False):
        cfg = QuantizerConfig(shuffle_enabled=shuffle_on, shuffle_seed=5)
        (key_a, key_g), _ = quantize_pipeline([amps, amps], cfg)
        assert len(key_a) > 0
        assert skdr(key_a, key_g) == 0.0


def test_pipeline_correlated_gaussian_pairs():
    rng = np.random.default_rng(2024)
    skdrs, fractions = [], []
    for _ in range(100):
        base = rng.standard_normal(512)
        noise = rng.standard_normal(512)
        rho = 0.99
        a = 10 + base
        g = 10 + rho * base + np.sqrt(1 - rho**2) * noise
        cfg = QuantizerConfig(shuffle_seed=int(rng.integers(2**31)))
        (key_a, key_g), _ = quantize_pipeline(np.abs([a, g]), cfg)
        skdrs.append(skdr(key_a, key_g))
        fractions.append(len(key_a) / 512)
    assert np.mean(skdrs) < 0.05
    assert 0.55 <= np.mean(fractions) <= 0.85


def test_pipeline_shuffle_shortens_runs_on_smooth_profiles():
    rng = np.random.default_rng(31)
    on_runs, off_runs = [], []
    for trial in range(50):
        # smooth low-pass profile: few random harmonics over the vector
        t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        smooth = np.abs(sum(c * np.exp(1j * (k + 1) * t) for k, c in enumerate(coef)))
        amps = smooth
        for shuffle_on, sink in ((True, on_runs), (False, off_runs)):
            cfg = QuantizerConfig(shuffle_enabled=shuffle_on, shuffle_seed=trial)
            (key_a, _), _ = quantize_pipeline([amps, amps], cfg)
            l0, l1 = max_run_lengths(key_a)
            sink.append(max(l0, l1))
    assert np.mean(off_runs) > np.mean(on_runs)


def test_shuffle_preserves_bit_multiset_under_global_thresholds():
    rng = np.random.default_rng(8)
    values = rng.rayleigh(size=128)
    amps = values
    cfg_off = QuantizerConfig(shuffle_enabled=False, block_size=128)
    cfg_on = QuantizerConfig(shuffle_enabled=True, block_size=128, shuffle_seed=77)
    (key_off, _), _ = quantize_pipeline([amps, amps], cfg_off)
    (key_on, _), _ = quantize_pipeline([amps, amps], cfg_on)
    assert sorted(key_off.bits.tolist()) == sorted(key_on.bits.tolist())


def test_retained_fraction_monotone_in_alpha():
    rng = np.random.default_rng(12)
    amps_a = rng.rayleigh(size=512)
    amps_g = amps_a + 0.05 * rng.standard_normal(512)
    previous = None
    for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.2):
        cfg = QuantizerConfig(alpha=alpha, shuffle_enabled=False)
        retained, _, _ = censoring_exchange(amps_a, amps_g, cfg)
        if previous is not None:
            assert len(retained) <= previous
        previous = len(retained)


def test_trailing_blocks():
    # length 130 with m=64: two full blocks + a 2-wide tail block
    rng = np.random.default_rng(3)
    amps = rng.rayleigh(size=130)
    th = block_thresholds(amps, QuantizerConfig())
    assert th.shape[1] == 3
    # length 129: the singleton tail is censored outright
    amps1 = rng.rayleigh(size=129)
    retained, _, _ = censoring_exchange(amps1, amps1, QuantizerConfig(alpha=0.0))
    assert 128 not in retained.tolist()
    np.testing.assert_array_equal(retained, np.arange(128))


def test_pipeline_deterministic():
    rng = np.random.default_rng(5)
    a = rng.rayleigh(size=300)
    g = rng.rayleigh(size=300)
    cfg = QuantizerConfig(shuffle_seed=21)
    k1, _ = quantize_pipeline([a, g], cfg)
    k2, _ = quantize_pipeline([a, g], cfg)
    np.testing.assert_array_equal(k1[0].bits, k2[0].bits)
    np.testing.assert_array_equal(k1[1].bits, k2[1].bits)


@pytest.mark.parametrize("shuffle_on", [True, False], ids=["shuffle", "no-shuffle"])
def test_listener_key_is_the_party_step(shuffle_on):
    # a listener's row holding G's amplitudes gives G's own key
    rng = np.random.default_rng(41)
    amps_a = rng.rayleigh(size=300)
    amps_g = np.abs(amps_a + 0.1 * rng.standard_normal(300))
    cfg = QuantizerConfig(shuffle_enabled=shuffle_on, shuffle_seed=9)
    (_, key_g, key_e), _ = quantize_pipeline([amps_a, amps_g, amps_g], cfg)
    np.testing.assert_array_equal(key_e.bits, key_g.bits)
    # and the listener's row leaves A's and G's keys as they were
    (_, alone_g), _ = quantize_pipeline([amps_a, amps_g], cfg)
    np.testing.assert_array_equal(alone_g.bits, key_g.bits)


@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=2, max_value=70),
    st.floats(min_value=0.0, max_value=2.0),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=300)
def test_stacked_call_equals_the_one_party_steps(parties, n, m, alpha, shuffle_on, coarse, seed):
    # the one-party steps as perfbench's traced round takes them: shuffle
    # each row, censor on A and G, then each row's own thresholds at the
    # shared positions.  Coarse values make ties, constant blocks and values
    # exactly at a threshold
    rng = np.random.default_rng(seed)
    if rng.random() < 0.3:  # a trailing block of one value
        n = n - n % m + 1
    rows = rng.rayleigh(size=(parties, n))
    if coarse:
        rows = np.round(rows, 1)
    cfg = QuantizerConfig(alpha=alpha, block_size=m, shuffle_enabled=shuffle_on,
                          shuffle_seed=seed)
    keys, retained = quantize_pipeline(rows, cfg)
    one = [shuffle(r, seed) if shuffle_on else r for r in rows]
    want_retained, _, _ = censoring_exchange(one[0], one[1], cfg)
    np.testing.assert_array_equal(retained, want_retained)
    assert len(keys) == parties
    for key, r in zip(keys, one):
        want = quantize(r, want_retained, block_thresholds(r, cfg), "plain", m)
        np.testing.assert_array_equal(key.bits, want.bits)


def test_bitkey_rejects_non_bits():
    with pytest.raises(ParameterError):
        BitKey(np.array([0, 2], dtype=np.uint8))


@pytest.mark.parametrize("call", [
    lambda: BitKey(np.full(4, 0.9)),
    lambda: BitKey(np.zeros((2, 4), dtype=np.uint8)),
    lambda: max_run_lengths([2, 2, 2]),
    lambda: max_run_lengths([0.5, 0.9, 1.0]),
    lambda: LocalParityOracle(np.array([0.9, 1.2])),
], ids=["fractional-bitkey", "2d-bitkey", "run-lengths-of-2s", "fractional-run-lengths",
        "fractional-oracle"])
def test_non_bits_rejected_before_any_cast(call):
    # a cast to uint8 before the check would truncate 0.9 to 0
    with pytest.raises(ParameterError):
        call()


def test_config_validation():
    with pytest.raises(ParameterError):
        QuantizerConfig(alpha=-0.1)
    with pytest.raises(ParameterError):
        QuantizerConfig(block_size=1)
    with pytest.raises(TypeError):  # the encoding is not a field
        QuantizerConfig(encoding="plain")

import math

import numpy as np
import pytest

from chirpkey import (
    ChannelModel,
    IqSamples,
    LoRaParams,
    ParameterError,
    apply_channel,
    estimate_from_frame,
    exponential_profile,
    gen_preamble,
    sample_channel,
)
from chirpkey import channel
from chirpkey.pipeline import simulate_probe_frames
from chirpkey.pipeline_seeds import derive_trial_seeds
from conftest import cell_config


def test_exponential_profile_shape():
    p = exponential_profile(4, decay_db=3.0)
    assert not p.flags.writeable  # cached and shared by every model
    assert p.sum() == pytest.approx(1.0)
    ratios = p[:-1] / p[1:]
    np.testing.assert_allclose(ratios, 10 ** 0.3, rtol=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_taps=0),
        dict(reciprocity_rho=1.5),
        dict(reciprocity_rho=-0.1),
        dict(decay_db=np.nan),
        dict(decay_db=np.inf),
        dict(decay_db=-np.inf),
        dict(snr_db=-np.inf),  # a zero power ratio, not a noiseless channel
        dict(snr_db=3100.0),  # 10**310 overflows the power ratio
        dict(snr_db=-3300.0),  # 10**-330 underflows it to zero
    ],
)
def test_invalid_model_rejected(kwargs):
    with pytest.raises(ParameterError):
        ChannelModel(**kwargs)


def _old_profile(num_taps, decay_db):
    """The profile as first computed, relative to the first tap: the reference
    for every decay >= 0, whose largest term is still the first."""
    with np.errstate(all="ignore"):
        p = 10.0 ** (-decay_db * np.arange(num_taps) / 10.0)
        return p / p.sum()


@pytest.mark.parametrize("num_taps", [*range(1, 40), 100, 1000, 4096])
def test_model_refuses_the_decays_the_built_profile_refused(num_taps):
    """A model refuses a decay exactly when its built profile is no profile
    (not finite, no nonzero tap, or not summing to 1): NaN and +-inf."""
    decays = [0.0, -0.0, 3.0, -3.0, 1e308, -1e308, math.nan, math.inf, -math.inf,
              5e-324, -5e-324]
    if num_taps > 1:  # 40 ulps either side of where the old last tap's power overflowed
        edge = -math.log10(np.finfo(float).max) * 10.0 / (num_taps - 1)
        for direction in (-math.inf, math.inf):
            d = edge
            for _ in range(40):
                d = math.nextafter(d, direction)
                decays.append(d)
    decays += np.random.default_rng(num_taps).uniform(-2000.0, 2000.0, 200).tolist()
    mismatches = []
    for decay_db in decays:
        try:
            ChannelModel(num_taps=num_taps, decay_db=decay_db)
            refused = False
        except ParameterError:
            refused = True
        with np.errstate(invalid="ignore"):  # inf * 0 at a non-finite decay
            p = exponential_profile(num_taps, decay_db)
        valid = (np.all(np.isfinite(p)) and np.any(p > 0)
                 and abs(math.fsum(p) - 1.0) <= 1e-12)
        if refused == valid or valid != math.isfinite(decay_db):
            mismatches.append(decay_db)
        elif decay_db >= 0:
            assert p.tobytes() == _old_profile(num_taps, decay_db).tobytes(), decay_db
    assert mismatches == []


def test_model_with_its_sum_past_the_float_range_keeps_its_taps():
    # the sum of 4096 terms relative to the first tap overflowed, and every
    # tap normalized to 0
    model = ChannelModel(num_taps=4096, decay_db=-0.752)
    p = exponential_profile(model.num_taps, model.decay_db)
    assert np.count_nonzero(p) > 0 and p.argmax() == 4095
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)


def test_model_builds_no_profile(monkeypatch):
    def no_profile(num_taps, decay_db):
        raise AssertionError("a model built its profile")

    monkeypatch.setattr(channel, "exponential_profile", no_profile)
    assert ChannelModel(num_taps=4097).num_taps == 4097


def test_perfect_reciprocity_is_exact():
    model = ChannelModel(reciprocity_rho=1.0)
    forward, reverse, _ = sample_channel(model, seed=42)
    np.testing.assert_array_equal(forward, reverse)


def test_sample_channel_deterministic():
    model = ChannelModel()
    a = sample_channel(model, seed=7)
    b = sample_channel(model, seed=7)
    assert len(a) == len(b) == 3
    for taps_a, taps_b in zip(a, b):
        np.testing.assert_array_equal(taps_a, taps_b)


@pytest.mark.slow
def test_zero_rho_decorrelates_directions():
    model = ChannelModel(reciprocity_rho=0.0)
    n = 100_000
    fwd = np.empty(n, dtype=complex)
    rev = np.empty(n, dtype=complex)
    for i in range(n):
        forward, reverse, _ = sample_channel(model, seed=i)
        fwd[i], rev[i] = forward[0], reverse[0]
    corr = np.abs(np.mean(fwd * np.conj(rev))) / (np.std(fwd) * np.std(rev))
    assert corr < 0.02


@pytest.mark.slow
def test_per_tap_power_matches_profile():
    model = ChannelModel()
    n = 100_000
    powers = np.zeros(model.num_taps)
    for i in range(n):
        powers += np.abs(sample_channel(model, seed=i)[0]) ** 2
    powers /= n
    np.testing.assert_allclose(powers, exponential_profile(model.num_taps, model.decay_db),
                               rtol=0.03)


def test_identity_channel_passthrough(default_params):
    tx = gen_preamble(default_params)
    rx = apply_channel(tx, np.array([1.0]), snr_db=np.inf, seed=0)
    np.testing.assert_array_equal(rx, tx)
    rx = apply_channel(tx, np.array([0.5]), snr_db=np.inf, seed=0)
    np.testing.assert_allclose(rx, 0.5 * tx, rtol=1e-15)


@pytest.mark.parametrize("num_taps", [1, 2, 3, 4, 5, 6, 7, 8])
def test_noiseless_channel_matches_linear_convolution(num_taps):
    # summation order differs from np.convolve's, so allow float64 rounding
    rng = np.random.default_rng(num_taps)
    for n in (1, 2, num_taps, 37, 4096):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        taps = rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps)
        rx = apply_channel(x, taps, snr_db=np.inf, seed=0)
        want = np.convolve(x, taps)[:n]
        assert rx.shape == want.shape
        assert np.max(np.abs(rx - want)) <= 1e-13 * np.max(np.abs(want))


def test_noise_power_calibration(default_params):
    tx = np.ones(100_000, dtype=complex)
    rx = apply_channel(tx, np.array([1.0]), snr_db=0.0, seed=3)
    noise = rx - tx
    ratio = np.mean(np.abs(noise) ** 2) / np.mean(np.abs(tx) ** 2)
    assert 0.9 <= ratio <= 1.1


def test_empty_taps_rejected(default_params):
    tx = gen_preamble(default_params)
    with pytest.raises(ParameterError):
        apply_channel(tx, np.array([]), snr_db=np.inf, seed=0)


def _read_only_preamble(at: int = 0, factor: complex = 1.0) -> np.ndarray:
    x = gen_preamble(LoRaParams()).copy()
    x[at] *= factor
    x.setflags(write=False)  # an input the leg store would keep
    return x


@pytest.mark.parametrize("snr_db", [10.0, np.inf])
@pytest.mark.parametrize("tx, taps", [
    (_read_only_preamble(), [1.0, np.nan]),
    (_read_only_preamble(), [1.0, 0.5, np.inf]),
    (_read_only_preamble(), [1.0, np.inf * 1j]),
    (_read_only_preamble(100, np.nan), [1.0, 0.5j]),
    (_read_only_preamble(4095, np.inf), [1.0]),
    (_read_only_preamble(7, complex(0, np.inf)), [0.5, 0.25]),
    (_read_only_preamble().reshape(8, -1), [1.0]),  # 2-d
    (np.array([], dtype=complex), [1.0]),
], ids=["nan-tap", "inf-tap", "imag-inf-tap", "nan-sample", "inf-sample",
        "imag-inf-sample", "2-d", "empty"])
def test_apply_channel_rejects_bad_samples_and_taps(tx, taps, snr_db, empty_legs):
    with np.errstate(all="ignore"), pytest.raises(ParameterError):
        apply_channel(tx, np.array(taps), snr_db, seed=0)
    assert len(empty_legs) == 0  # nothing non-finite is kept


def test_apply_channel_rejects_an_overflowing_noise_scale(empty_legs):
    tx = _read_only_preamble()
    apply_channel(tx, np.array([1.0]), -3080.0, seed=0)  # 10**-308: the scale is finite
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match="overflows"):
        apply_channel(tx, np.array([1.0]), -3084.0, seed=0)


def test_energy_preserved_on_average(default_params):
    model = ChannelModel()
    tx = gen_preamble(LoRaParams(preamble_len=1))
    total = 0.0
    trials = 10_000
    for i in range(trials):
        taps = sample_channel(model, seed=i)[0]
        rx = apply_channel(tx, taps, snr_db=np.inf, seed=0)
        total += np.mean(np.abs(rx) ** 2)
    assert total / trials == pytest.approx(1.0, rel=0.05)


def _probe(params, model, seed, bin_policy="all-bins"):
    """G's, A's and the eavesdropper's CFR of one round, each from its whole reception."""
    seeds = np.random.SeedSequence(seed).spawn(4)
    return [estimate_from_frame(IqSamples(rx, params.fs), params, bin_policy)
            for rx in channel.receive(gen_preamble(params), model, seeds)]


def test_probe_perfect_channel_matches_bin_for_bin(default_params):
    model = ChannelModel(reciprocity_rho=1.0, snr_db=np.inf)
    cfr_g, cfr_a, cfr_e = _probe(default_params, model, seed=5)
    assert len(cfr_a) == len(cfr_g) == len(cfr_e)
    np.testing.assert_allclose(cfr_a.bins, cfr_g.bins, atol=1e-9)


def test_probe_amplitude_correlation_at_30db(default_params):
    model = ChannelModel(reciprocity_rho=0.99, snr_db=30.0)
    corrs = []
    for seed in range(100):
        cfr_g, cfr_a, _ = _probe(default_params, model, seed, bin_policy="occupied-band")
        a = np.abs(cfr_a.bins)
        g = np.abs(cfr_g.bins)
        corrs.append(np.corrcoef(a, g)[0, 1])
    assert np.mean(corrs) >= 0.95


def test_probe_eavesdropper_decorrelated(default_params):
    model = ChannelModel(eavesdropper_independent=True)
    corrs = []
    for seed in range(100):
        cfr_g, _, cfr_e = _probe(default_params, model, seed)
        corrs.append(np.corrcoef(np.abs(cfr_e.bins), np.abs(cfr_g.bins))[0, 1])
    assert abs(np.mean(corrs)) < 0.2


def test_probe_dependent_eavesdropper_tracks_far_end():
    model = ChannelModel(eavesdropper_independent=False)
    _, reverse, eve = sample_channel(model, seed=9)
    np.testing.assert_array_equal(eve, reverse)


def test_probe_deterministic(default_params):
    model = ChannelModel()
    r1 = _probe(default_params, model, seed=11)
    r2 = _probe(default_params, model, seed=11)
    assert len(r1) == len(r2) == 3
    for cfr1, cfr2 in zip(r1, r2):
        np.testing.assert_array_equal(cfr1.bins, cfr2.bins)


def test_reciprocity_monotone_in_rho(default_params):
    means = []
    for rho in (0.0, 0.5, 0.9, 0.99, 1.0):
        model = ChannelModel(reciprocity_rho=rho, snr_db=np.inf)
        corrs = []
        for seed in range(200):
            cfr_g, cfr_a, _ = _probe(default_params, model, seed)
            corrs.append(np.corrcoef(np.abs(cfr_a.bins), np.abs(cfr_g.bins))[0, 1])
        means.append(np.mean(corrs))
    assert all(b >= a for a, b in zip(means, means[1:]))


@pytest.fixture
def empty_store():
    channel._normals.clear()
    yield channel._normals
    channel._normals.clear()


@pytest.mark.parametrize("counts", [
    (1, 7, 4096, 32768),  # ascending: each request extends the prefix
    (32768, 4096, 7, 1),  # descending: one draw, then slices
    (4096, 4096, 4096),  # repeated
    (0, 5, 0, 5, 3),  # empty requests draw nothing
])
def test_unit_normals_equal_a_fresh_draw(empty_store, counts):
    seed = np.random.SeedSequence(21).spawn(2)[1]
    for count in counts:
        want = np.random.default_rng(seed).standard_normal(count)
        np.testing.assert_array_equal(channel._unit_normals(seed, count), want)


def test_unit_normals_interleaved_across_more_seeds_than_the_bound(empty_store):
    seeds = [3, np.random.SeedSequence(3, spawn_key=(1,)), np.random.SeedSequence([4, 5]), 6]
    assert len(seeds) > channel._NORMALS_STREAMS
    for step, count in enumerate((10, 3000, 20, 8192, 8192, 1, 16384)):
        for i in range(len(seeds)):
            seed = seeds[(i + step) % len(seeds)]
            want = np.random.default_rng(seed).standard_normal(count)
            np.testing.assert_array_equal(channel._unit_normals(seed, count), want)
            assert len(empty_store) <= channel._NORMALS_STREAMS


def test_unit_normals_are_read_only(empty_store):
    z = channel._unit_normals(9, 16)
    with pytest.raises(ValueError):
        z[0] = 1.0
    with pytest.raises(ValueError):
        channel._unit_normals(9, 64)[40] = 1.0  # an extended prefix too


def test_unit_normals_are_keyed_by_seed_value(empty_store):
    channel._unit_normals(17, 8)
    channel._unit_normals(np.random.SeedSequence(17), 8)
    assert len(empty_store) == 1
    for make in (lambda: np.random.SeedSequence((5, 6), spawn_key=(2,)),
                 lambda: np.random.SeedSequence([5, 6], spawn_key=(2,))):
        channel._unit_normals(make(), 8)
        channel._unit_normals(make(), 8)
    assert len(empty_store) == 2  # a list and a tuple of the same words: one stream


def test_apply_channel_does_not_spawn_from_its_seed(default_params, empty_store):
    seed = np.random.SeedSequence(4)
    seed.spawn(1)
    tx = gen_preamble(default_params)
    for snr_db in (5.0, 10.0):
        apply_channel(tx, np.array([1.0]), snr_db, seed)
    assert seed.n_children_spawned == 1


def test_noiseless_leg_draws_nothing(default_params, empty_store):
    apply_channel(gen_preamble(default_params), np.array([1.0]), np.inf, seed=2)
    assert len(empty_store) == 0


def test_apply_channel_noise_is_the_seeds_first_2n_normals(default_params, empty_store):
    # the noise of a shorter input, or at another SNR, is a prefix of the same stream
    seed = np.random.SeedSequence(8)
    for sf in (9, 7, 8):
        tx = gen_preamble(LoRaParams(sf=sf))
        n = len(tx)
        for snr_db in (5.0, 50.0):
            rx = apply_channel(tx, np.array([1.0]), snr_db, seed)
            rng = np.random.default_rng(seed)
            scale = np.sqrt(np.mean(np.abs(tx) ** 2) / 10.0 ** (snr_db / 10.0) / 2.0)
            want = np.empty(n, dtype=np.complex128)
            want.real = rng.standard_normal(n)
            want.imag = rng.standard_normal(n)
            want *= scale
            np.testing.assert_array_equal(rx, tx + want)


@pytest.fixture
def empty_legs():
    channel._legs.clear()
    yield channel._legs
    channel._legs.clear()


@pytest.fixture
def tap_sums(monkeypatch):
    """The taps of every tap sum computed, in call order."""
    calls = []
    tap_sum = channel._tap_sum

    def spy(x, taps):
        calls.append(taps.tobytes())
        return tap_sum(x, taps)

    monkeypatch.setattr(channel, "_tap_sum", spy)
    return calls


def test_snr_cells_of_a_trial_sum_each_leg_once(empty_legs, tap_sums):
    seeds = derive_trial_seeds(cell_config(7, 5.0).master_seed, 0)
    for i, sf in enumerate((7, 8, 9)):
        for snr_db in (5.0, 10.0, 50.0):
            simulate_probe_frames(cell_config(sf, snr_db), seeds)
            assert len(empty_legs) <= channel._LEGS
        assert len(tap_sums) == 3 * (i + 1)  # G, A and the eavesdropper, once per SF
    assert len(set(tap_sums)) == 3  # every SF passes through the trial's three tap sets


def test_leg_store_interleaved_across_more_legs_than_the_bound(default_params, empty_legs):
    tx = gen_preamble(default_params)
    rng = np.random.default_rng(5)
    legs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5)]
    assert len(legs) > channel._LEGS
    for step in range(4):
        for i in range(len(legs)):
            taps = legs[(i + step) % len(legs)]
            got = apply_channel(tx, taps, np.inf, seed=0)
            np.testing.assert_array_equal(got, channel._tap_sum(tx, taps))
            assert len(empty_legs) <= channel._LEGS


def test_leg_store_misses_other_taps_and_other_inputs(default_params, empty_legs, tap_sums):
    tx = gen_preamble(default_params)
    taps = np.array([1.0, 0.5j])
    for snr_db in (5.0, 10.0, np.inf):
        apply_channel(tx, taps, snr_db, seed=1)
    assert len(tap_sums) == 1
    apply_channel(tx, np.array([1.0, 0.25j]), 5.0, seed=1)
    assert len(tap_sums) == 2
    twin = tx.copy()  # equal samples, another object
    twin.setflags(write=False)
    apply_channel(twin, taps, 5.0, seed=1)
    assert len(tap_sums) == 3
    apply_channel(twin, taps, 10.0, seed=1)
    assert len(tap_sums) == 3


def test_leg_store_keeps_no_writable_input(default_params, empty_legs):
    tx = gen_preamble(default_params).copy()
    taps = np.array([1.0, 0.5j])
    first = apply_channel(tx, taps, np.inf, seed=0).copy()
    tx *= 2.0  # the same object, changed in place
    np.testing.assert_array_equal(apply_channel(tx, taps, np.inf, seed=0), 2.0 * first)
    assert len(empty_legs) == 0


def test_noiseless_leg_cannot_change_the_stored_sum(default_params, empty_legs):
    tx = gen_preamble(default_params)
    taps = np.array([0.5, 0.25j])
    rx = apply_channel(tx, taps, np.inf, seed=0)
    with pytest.raises(ValueError):
        rx[0] = 0.0
    with pytest.raises(ValueError):
        rx *= 2.0
    want = channel._tap_sum(tx, taps)
    np.testing.assert_array_equal(apply_channel(tx, taps, np.inf, seed=0), want)
    noisy = apply_channel(tx, taps, 10.0, seed=0)
    channel._legs.clear()
    np.testing.assert_array_equal(apply_channel(tx, taps, 10.0, seed=0), noisy)


@pytest.mark.parametrize("snrs", [(5.0, 10.0, 50.0), (50.0, 10.0, 5.0)])
def test_frames_equal_those_of_an_emptied_leg_store(empty_legs, snrs):
    cells = [(t, sf, snr) for t in range(3) for sf in (7, 8, 9) for snr in snrs]
    shared = {}
    for t, sf, snr in cells:
        cfg = cell_config(sf, snr)
        shared[t, sf, snr] = simulate_probe_frames(cfg, derive_trial_seeds(cfg.master_seed, t))
    for t, sf, snr in cells:
        cfg = cell_config(sf, snr)
        empty_legs.clear()
        fresh = simulate_probe_frames(cfg, derive_trial_seeds(cfg.master_seed, t))
        for got, want in zip(shared[t, sf, snr], fresh, strict=True):
            assert got.samples.tobytes() == want.samples.tobytes(), (t, sf, snr)

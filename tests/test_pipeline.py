import hashlib
import warnings

import numpy as np
import pytest
from dataclasses import fields, replace
from itertools import islice

from chirpkey import (
    ChannelModel,
    ExperimentConfig,
    IqSamples,
    ParameterError,
    PreambleNotFoundError,
    QuantizerConfig,
    export_probe_captures,
    ingest_capture,
    run_captures,
    run_pipeline_once,
    run_sweep,
)
from chirpkey import cfr, channel, pipeline, waveform
from chirpkey.config import with_sweep_value
from chirpkey.pipeline import (
    aggregate,
    observe,
    rows_to_csv,
    run_trials,
    simulate_probe_frames,
)
from chirpkey.pipeline_seeds import derive_trial_seeds
from chirpkey.waveform import LoRaParams
from conftest import cell_config


def test_perfect_channel_round():
    import math

    from chirpkey.reconciliation import initial_block_size, pass_block_sizes

    cfg = ExperimentConfig(
        channel=ChannelModel(reciprocity_rho=1.0, snr_db=np.inf)
    )
    result = run_pipeline_once(cfg, trial_seed=0)
    assert result.metrics.skdr == 0.0
    assert result.reconciliation.converged
    assert result.confirmation.matched
    # zero flips: the leak equals the deterministic block-count schedule
    n = len(result.reconciliation.corrected_key)
    k1 = initial_block_size(result.qber_estimate, n)
    schedule = sum(math.ceil(n / k) for k in pass_block_sizes(k1, n, cfg.cascade.num_passes))
    assert result.reconciliation.parity_bits_leaked == schedule + 1


def test_flat_channel_carries_no_key_yet_confirms():
    # one tap: a flat CFR, so each party quantizes its own noise and the keys
    # are independent; cascade equalizes them by disclosing more parity than
    # they hold, and confirmation still matches
    cfg = ExperimentConfig(channel=ChannelModel(num_taps=1))
    results = [run_pipeline_once(cfg, t) for t in range(20)]
    assert abs(np.mean([r.metrics.skdr for r in results]) - 0.5) <= 0.05
    assert all(r.confirmation.matched for r in results)
    for r in results:
        rec = r.reconciliation
        assert rec.parity_bits_leaked >= len(rec.corrected_key)


def test_default_rounds_have_low_disagreement():
    cfg = ExperimentConfig()
    results = [run_pipeline_once(cfg, t) for t in range(30)]
    assert np.mean([r.metrics.skdr <= 0.05 for r in results]) >= 0.9
    assert all(r.confirmation.matched for r in results)


def test_eavesdropper_runs_public_pipeline():
    cfg = ExperimentConfig()
    result = run_pipeline_once(cfg, trial_seed=3)
    assert result.eve_skdr is not None
    assert 0.0 <= result.eve_skdr <= 1.0


def test_pipeline_deterministic():
    cfg = ExperimentConfig()
    r1 = run_pipeline_once(cfg, trial_seed=7)
    r2 = run_pipeline_once(cfg, trial_seed=7)
    np.testing.assert_array_equal(r1.key_g.bits, r2.key_g.bits)
    assert r1.metrics == r2.metrics
    assert r1.confirmation.digest_g.hex == r2.confirmation.digest_g.hex


def test_trial_seeds_are_independent():
    cfg = ExperimentConfig()
    r0 = run_pipeline_once(cfg, trial_seed=0)
    r1 = run_pipeline_once(cfg, trial_seed=1)
    assert not np.array_equal(r0.key_g.bits, r1.key_g.bits)


def test_negative_trial_index_rejected():
    for _ in range(2):  # an error is never cached
        with pytest.raises(ParameterError, match="trial index"):
            derive_trial_seeds(1, -1)


def _seed_state(seeds):
    """Every value a TrialSeeds hands its consumers, as plain data."""
    out = []
    for f in fields(seeds):
        v = getattr(seeds, f.name)
        if isinstance(v, np.random.SeedSequence):
            v = (v.entropy, v.spawn_key, v.pool_size, v.generate_state(4).tolist())
        out.append(v)
    return out


def test_cached_trial_seeds_equal_a_fresh_derivation():
    pairs = [(m, t) for m in (0, 1, 2**40) for t in (0, 1, 7, 2**33)]
    pairs += [(np.int64(1), np.int64(3)), (np.uint32(5), 2), (1, np.int32(3))]
    for master, trial in pairs + pairs:  # second pass reads the cache
        got = derive_trial_seeds(master, trial)
        assert _seed_state(got) == _seed_state(derive_trial_seeds.__wrapped__(master, trial))
    assert derive_trial_seeds.cache_info().maxsize <= 16


def test_seed_cache_is_typed():
    # untyped, 3.0 would hit the entry of 3 (equal and of equal hash)
    derive_trial_seeds(0, 3)
    with pytest.raises(TypeError):
        derive_trial_seeds(0, 3.0)


def _assert_never_spawned(seeds):
    for f in fields(seeds):
        v = getattr(seeds, f.name)
        if isinstance(v, np.random.SeedSequence):
            assert v.n_children_spawned == 0, f.name


def test_shared_trial_seeds_are_not_spawned_from(tmp_path):
    # the cache hands every caller the same SeedSequence objects; a spawn
    # would change what the next caller of that trial draws
    cfg = ExperimentConfig()
    run_pipeline_once(cfg, 11)
    _assert_never_spawned(derive_trial_seeds(cfg.master_seed, 11))
    paths = export_probe_captures(cfg, 12, tmp_path)
    run_captures(replace(cfg, mode="captures", capture_a2g=paths["a2g"],
                         capture_g2a=paths["g2a"], capture_eve=paths["eve"]), 12)
    _assert_never_spawned(derive_trial_seeds(cfg.master_seed, 12))


def test_capture_replay_matches_simulation(tmp_path):
    cfg = ExperimentConfig()
    for seed in range(3):
        sim = run_pipeline_once(cfg, trial_seed=seed)
        paths = export_probe_captures(cfg, seed, tmp_path)
        cap_cfg = replace(
            cfg,
            mode="captures",
            capture_a2g=paths["a2g"],
            capture_g2a=paths["g2a"],
            capture_eve=paths["eve"],
        )
        rep = run_captures(cap_cfg, trial_seed=seed)
        np.testing.assert_array_equal(rep.key_a.bits, sim.key_a.bits)
        np.testing.assert_array_equal(rep.key_g.bits, sim.key_g.bits)
        assert rep.metrics == sim.metrics
        assert rep.eve_skdr == sim.eve_skdr
        assert rep.reconciliation.parity_bits_leaked == sim.reconciliation.parity_bits_leaked
        assert rep.confirmation.digest_a.hex == sim.confirmation.digest_a.hex


@pytest.mark.parametrize("wrong_sf", [6, 8])
def test_capture_replay_wrong_sf_raises(tmp_path, wrong_sf):
    cfg = ExperimentConfig()
    paths = export_probe_captures(cfg, 0, tmp_path)
    wrong = replace(
        cfg,
        lora=LoRaParams(sf=wrong_sf),
        mode="captures",
        capture_a2g=paths["a2g"],
        capture_g2a=paths["g2a"],
    )
    with pytest.raises(PreambleNotFoundError, match="a2g"):
        run_captures(wrong, trial_seed=0)


def test_captures_require_paths():
    with pytest.raises(ParameterError):
        run_captures(ExperimentConfig(), trial_seed=0)


def test_clean_loopback_captures(tmp_path):
    # identity channel both ways: the same raw preamble file on both sides
    from chirpkey import gen_preamble, write_capture

    cfg = ExperimentConfig()
    path = tmp_path / "loopback.cf32"
    write_capture(path, IqSamples(gen_preamble(cfg.lora), cfg.lora.fs))
    result = run_captures(
        replace(cfg, mode="captures", capture_a2g=str(path), capture_g2a=str(path)),
        trial_seed=0,
    )
    assert result.metrics.skdr == 0.0
    assert result.confirmation.matched
    assert result.eve_skdr is None  # no third capture given


def test_sweep_rows_structure():
    cfg = ExperimentConfig(
        trials=4,
        sweep_axis="alpha",
        sweep_values=(0.3, 0.7),
    )
    rows = run_sweep(cfg)
    assert len(rows) == 4  # two values x two shuffle arms
    assert [(r.sweep_value, r.shuffle) for r in rows] == [
        (0.3, True), (0.3, False), (0.7, True), (0.7, False)
    ]
    csv_text = rows_to_csv(rows)
    header, *lines = csv_text.strip().split("\n")
    assert header.startswith("sweep_axis,sweep_value,shuffle,")
    assert len(lines) == 4
    assert all(line.split(",")[2] in ("on", "off") for line in lines)


def test_sweep_deterministic_csv():
    cfg = ExperimentConfig(trials=3, sweep_axis="alpha", sweep_values=(0.5,))
    assert rows_to_csv(run_sweep(cfg)) == rows_to_csv(run_sweep(cfg))


@pytest.mark.parametrize("axis, values", [
    ("alpha", (0.3, 0.7)), ("block_size", (32, 128)), ("snr", (10.0, 30.0))])
def test_sweep_equals_per_arm_trials(axis, values):
    # the reference re-observes every trial of every arm
    cfg = ExperimentConfig(trials=3, sweep_axis=axis, sweep_values=values)
    rows = []
    for value in values:
        pinned = with_sweep_value(cfg, axis, value)
        for shuffle_on in (True, False):
            arm = replace(pinned, quantizer=replace(pinned.quantizer, shuffle_enabled=shuffle_on))
            rows.append(aggregate(run_trials(arm), axis, value, shuffle_on, cfg.master_seed))
    assert rows_to_csv(run_sweep(cfg)) == rows_to_csv(rows)


def test_aggregate_of_no_results_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = aggregate([], "snr", -5.0, True, 1)
    assert row.to_csv() == "snr,-5,on,nan,nan,nan,nan,nan,nan,nan,nan,0,1"


def test_sweep_aborts_on_an_error_in_distillation():
    # alpha 100 censors every position: a config error, not a lost trial
    with pytest.raises(ParameterError, match="censored every position"):
        run_sweep(ExperimentConfig(trials=2, sweep_axis="alpha", sweep_values=(0.5, 100.0)))


def _count_observe(monkeypatch) -> list:
    calls = []

    def counting_observe(config, trial_seed):
        calls.append((config.channel.snr_db, trial_seed))
        return observe(config, trial_seed)

    monkeypatch.setattr(pipeline, "observe", counting_observe)
    return calls


@pytest.mark.parametrize("axis, values, observed", [
    ("alpha", (0.3, 0.7), (50.0,)), ("snr", (10.0, 30.0), (10.0, 30.0))])
def test_sweep_observes_each_channel_and_trial_once(monkeypatch, axis, values, observed):
    # each (channel SNR, trial) exactly once, in whatever order
    calls = _count_observe(monkeypatch)
    run_sweep(ExperimentConfig(trials=3, sweep_axis=axis, sweep_values=values))
    assert sorted(calls) == [(snr, t) for snr in observed for t in range(3)]


def test_sweep_rejects_bad_later_value_before_any_trial(monkeypatch):
    calls = _count_observe(monkeypatch)
    with pytest.raises(ParameterError):
        run_sweep(ExperimentConfig(trials=3, sweep_axis="alpha", sweep_values=(0.5, -1.0)))
    assert calls == []


def test_observation_amplitudes_are_read_only():
    obs = observe(ExperimentConfig(), 0)
    for amps in (obs.amps_g, obs.amps_a, obs.amps_e):
        assert not amps.flags.writeable


def test_capture_observation_equals_simulated(tmp_path, monkeypatch):
    # replay is compared at the CFR, where a 1e-8 change in the frames
    # shows; the digests downstream do not see one
    replayed = []
    real_distill = pipeline.distill

    def recording_distill(observation, config):
        replayed.append(observation)
        return real_distill(observation, config)

    monkeypatch.setattr(pipeline, "distill", recording_distill)
    cfg = ExperimentConfig()
    for t in range(10):
        paths = export_probe_captures(cfg, t, tmp_path)
        run_captures(replace(cfg, mode="captures", capture_a2g=paths["a2g"],
                             capture_g2a=paths["g2a"], capture_eve=paths["eve"]), t)
        sim = observe(cfg, t)
        for party in ("amps_g", "amps_a", "amps_e"):
            got = getattr(replayed[-1], party)
            assert got.tobytes() == getattr(sim, party).tobytes(), (t, party)
        assert replayed[-1].seeds.shuffle == sim.seeds.shuffle


def test_with_sweep_value_axes():
    cfg = ExperimentConfig()
    assert with_sweep_value(cfg, "alpha", 0.9).quantizer.alpha == 0.9
    assert with_sweep_value(cfg, "block_size", 32).quantizer.block_size == 32
    assert with_sweep_value(cfg, "snr", 20.0).channel.snr_db == 20.0
    assert with_sweep_value(cfg, "num_taps", 2.0).channel.num_taps == 2
    assert with_sweep_value(cfg, "decay_db", 6.0).channel.decay_db == 6.0
    with pytest.raises(ParameterError):
        with_sweep_value(cfg, "taps", 1.0)
    with pytest.raises(ParameterError, match="block_size"):
        with_sweep_value(cfg, "block_size", 16.5)
    with pytest.raises(ParameterError, match="num_taps"):
        with_sweep_value(cfg, "num_taps", 1.5)


def test_qber_consumption_shortens_cascaded_key():
    cfg = ExperimentConfig()
    result = run_pipeline_once(cfg, trial_seed=5)
    consumed = int(np.ceil(cfg.qber_sample_fraction * result.metrics.key_bits))
    assert len(result.reconciliation.corrected_key) == result.metrics.key_bits - consumed


def test_explicit_qber_skips_consumption():
    from chirpkey import CascadeConfig

    cfg = ExperimentConfig(cascade=CascadeConfig(qber_estimate=0.05))
    result = run_pipeline_once(cfg, trial_seed=5)
    assert len(result.reconciliation.corrected_key) == result.metrics.key_bits


def test_confirmation_match_implies_equal_reconciled_keys():
    from chirpkey import skdr

    cfg = ExperimentConfig()
    checked = 0
    for t in range(20):
        result = run_pipeline_once(cfg, t)
        if result.confirmation.matched:
            assert skdr(result.reconciliation.corrected_key, result.reconciled_key_g) == 0.0
            checked += 1
    assert checked > 0


def test_sweep_arms_share_channel_realizations(monkeypatch):
    # one observation per trial, and each arm's result is its own round's
    base = ExperimentConfig()
    off = replace(base, quantizer=replace(base.quantizer, shuffle_enabled=False))
    calls = _count_observe(monkeypatch)
    paired = list(islice(pipeline.rounds(base, off), 5))
    assert calls == [(base.channel.snr_db, t) for t in range(5)]
    for t, results in enumerate(paired):
        for arm, result in zip((base, off), results):
            alone = run_pipeline_once(arm, t).confirmation
            assert result.confirmation.digest_a == alone.digest_a
            assert result.confirmation.digest_g == alone.digest_g


def _reference_frames(config, seeds):
    """Frames by the textbook formula: np.convolve truncated to the frame,
    noise added as one expression, a concatenated silent symbol, then a
    cast to capture depth (complex64)."""
    from chirpkey import gen_preamble, sample_channel

    model = config.channel
    tx = gen_preamble(config.lora)
    frames = []
    for taps, noise_seed in zip(sample_channel(model, seeds.channel),
                                (seeds.noise_g, seeds.noise_a, seeds.noise_e)):
        y = np.convolve(tx, taps)[: len(tx)]
        rng = np.random.default_rng(noise_seed)
        noise_var = np.mean(np.abs(y) ** 2) / 10.0 ** (model.snr_db / 10.0)
        y = y + np.sqrt(noise_var / 2.0) * (
            rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
        )
        padded = np.concatenate([y, np.zeros(config.lora.samples_per_symbol)])
        frames.append(padded.astype(np.complex64))
    return frames


def test_simulated_frames_equal_reference_at_capture_depth():
    cfg = ExperimentConfig()
    for t in range(200):
        seeds = derive_trial_seeds(cfg.master_seed, t)
        got = simulate_probe_frames(cfg, seeds)
        for frame, want in zip(got, _reference_frames(cfg, seeds), strict=True):
            assert frame.samples.tobytes() == want.tobytes(), f"trial {t}"


def test_frames_stay_at_capture_depth(tmp_path):
    cfg = ExperimentConfig()
    frames = simulate_probe_frames(cfg, derive_trial_seeds(cfg.master_seed, 0))
    assert [rx.samples.dtype for rx in frames] == [np.complex64] * 3
    paths = export_probe_captures(cfg, 0, tmp_path)
    for rx, leg in zip(frames, ("a2g", "g2a", "eve")):
        back = ingest_capture(paths[leg], cfg.lora)
        assert back.samples.dtype == np.complex64
        assert back.samples.tobytes() == rx.samples.tobytes()


def test_front_end_transforms_capture_depth_frames_in_double(monkeypatch):
    # every FFT of the aligner and the estimator reads complex128, as a
    # complex64 transform would round differently
    read = []

    def spy(fft):
        def call(x, *args, **kwargs):
            read.append(np.asarray(x).dtype)
            return fft(x, *args, **kwargs)
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, spy(getattr(np.fft, name)))
    seen = {"detect": [], "estimate": []}

    def take(stage):
        seen[stage] += read
        read.clear()

    for policy in ("all-bins", "occupied-band"):
        cfg = replace(cell_config(8, 10.0), bin_policy=policy)
        for rx in simulate_probe_frames(cfg, derive_trial_seeds(cfg.master_seed, 1)):
            assert rx.samples.dtype == np.complex64
            offset = waveform.detect_preamble(rx, cfg.lora)
            take("detect")
            frame = IqSamples(rx.samples[offset:], rx.fs)
            cfr.estimate_from_frame(frame, cfg.lora, policy)
            take("estimate")
    assert seen["detect"] and set(seen["detect"]) == {np.dtype(np.complex128)}
    assert seen["estimate"] and set(seen["estimate"]) == {np.dtype(np.complex128)}


def _detected(capture, params):
    try:
        return waveform.detect_preamble(capture, params)
    except PreambleNotFoundError as exc:
        return str(exc)


@pytest.mark.parametrize("cell, trials, misses", [
    ((7, 50.0), range(200), 0),  # the default config's trials
    *(((sf, 0.0), range(20), 2) for sf in (7, 8, 9)),  # round-replay's 0 dB miss cells
])
def test_detect_at_capture_depth_equals_detect_widened(cell, trials, misses):
    cfg = cell_config(*cell)
    found = []
    for t in trials:
        for rx in simulate_probe_frames(cfg, derive_trial_seeds(cfg.master_seed, t)):
            wide = IqSamples(rx.samples.astype(np.complex128), rx.fs)
            got = _detected(rx, cfg.lora)
            assert got == _detected(wide, cfg.lora), (t, got)
            found.append(got)
    assert sum(isinstance(got, str) for got in found) == misses


# SHA-256 over the float64 bytes of observe's G, A and eavesdropper CFR
# amplitudes: default trials 0..49, SF 9 trials 0..4, occupied-band trials
# 0..4.  The golden digests see the front end only through quantized keys,
# so a change that moves an amplitude by one ulp can pass them; this can't.
PINNED_FRONT_END = "27724fce340b3800e28a8e6d5f64bdac29264a0c256cbf123f5c9986ccd1279f"


# SHA-256 over "offset," ("miss," where no preamble is found) for
# every leg simulate_probe_frames makes: default trials 0..199, then SF 7, 8
# and 9 at 0 dB and at 10 dB, trials 0..19 each (6 misses, all at 0 dB).  It
# pins the aligner stage, which the golden digests and the amplitude pin see
# only through what follows it.
PINNED_OFFSETS = "3308d79ead1ef00f6458584799ee1ac91d845f9f97d44a8e9803ca3f6d26b705"


def test_aligner_offsets_match_pin():
    cells = [(cell_config(7, 50.0), 200)]
    cells += [(cell_config(sf, snr), 20) for sf in (7, 8, 9) for snr in (0.0, 10.0)]
    h = hashlib.sha256()
    misses = 0
    for cfg, trials in cells:
        for t in range(trials):
            for rx in simulate_probe_frames(cfg, derive_trial_seeds(cfg.master_seed, t)):
                try:
                    got = str(waveform.detect_preamble(rx, cfg.lora))
                except PreambleNotFoundError:
                    got, misses = "miss", misses + 1
                h.update(f"{got},".encode())
    assert misses == 6
    assert h.hexdigest() == PINNED_OFFSETS


def test_front_end_amplitudes_match_pinned_bytes():
    cases = [(ExperimentConfig(), 50),
             (ExperimentConfig(lora=LoRaParams(sf=9)), 5),
             (ExperimentConfig(bin_policy="occupied-band"), 5)]
    h = hashlib.sha256()
    for cfg, trials in cases:
        for t in range(trials):
            obs = observe(cfg, t)
            for amps in (obs.amps_g, obs.amps_a, obs.amps_e):
                h.update(amps.astype(np.float64, copy=False).tobytes())
    assert h.hexdigest() == PINNED_FRONT_END


# SHA-256 over the file bytes export_probe_captures writes for trials 0..2,
# each trial over SNR 5/10/50 dB x SF 7/8/9 in that order, all into one
# directory: later cells of a trial rewrite its three files, shorter (SF 9
# then SF 7) and longer (SF 7 then SF 8) than what was there.  It pins the
# frame stage at capture depth, which the golden digests see only through keys.
PINNED_EXPORT_BYTES = "0d99c6f52afdae1102279cb9854e586935c241e476667d45fd49c7e2f959c4d6"


def test_exported_capture_bytes_match_pin(tmp_path):
    ref = ExperimentConfig()
    h = hashlib.sha256()
    for t in range(3):
        for snr in (5.0, 10.0, 50.0):
            for sf in (7, 8, 9):
                cfg = replace(ref, lora=replace(ref.lora, sf=sf),
                              channel=replace(ref.channel, snr_db=snr))
                paths = export_probe_captures(cfg, t, tmp_path)
                for leg in ("a2g", "g2a", "eve"):
                    with open(paths[leg], "rb") as f:
                        h.update(f.read())
    assert h.hexdigest() == PINNED_EXPORT_BYTES


def _export_cells(ref, trial, cells, directory) -> dict:
    """File bytes of each cell's exported captures, by (sf, snr, leg)."""
    out = {}
    for sf, snr in cells:
        cfg = replace(ref, lora=replace(ref.lora, sf=sf), channel=replace(ref.channel, snr_db=snr))
        paths = export_probe_captures(cfg, trial, directory / f"sf{sf}_snr{snr:g}")
        for leg, path in paths.items():
            with open(path, "rb") as f:
                out[sf, snr, leg] = f.read()
    return out


def test_exported_captures_do_not_depend_on_cell_order(tmp_path):
    # cells share each noise seed's stream of normals: descending, the SF 9
    # cell draws it whole and the rest slice it; ascending, each SF extends it
    ref = ExperimentConfig()
    cells = [(sf, snr) for sf in (7, 8, 9) for snr in (5.0, 10.0, 50.0)]
    channel._normals.clear()
    descending = _export_cells(ref, 0, cells[::-1], tmp_path / "descending")
    channel._normals.clear()
    ascending = _export_cells(ref, 0, cells, tmp_path / "ascending")
    assert len(ascending) == 27
    assert descending.keys() == ascending.keys()
    for cell, data in ascending.items():
        assert descending[cell] == data, cell


# SHA-256 over rows_to_csv of an SNR sweep (5, 10, 50 dB, 5 trials), taken
# before noise seeds shared their streams across cells: the alpha-only
# golden sweep never changes the SNR, so it cannot see that sharing.
PINNED_SNR_SWEEP_CSV = "8e5e8f833c6e63a860b6e45ec8f28e52014722fbaa06330eac853446dd9ae8b4"


def test_snr_sweep_csv_matches_pin():
    cfg = ExperimentConfig(trials=5, sweep_axis="snr", sweep_values=(5.0, 10.0, 50.0))
    csv_text = rows_to_csv(run_sweep(cfg))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == PINNED_SNR_SWEEP_CSV

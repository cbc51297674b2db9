"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  Statistical criteria are fully seeded, so outcomes are reproducible.
"""
import time
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from chirpkey import (
    BitKey,
    CaptureFormatError,
    CascadeConfig,
    ExperimentConfig,
    IqSamples,
    LocalParityOracle,
    LoRaParams,
    PreambleNotFoundError,
    cascade,
    confirm,
    digest,
    estimate_from_frame,
    export_probe_captures,
    gen_upchirp,
    rounds,
    run_captures,
    run_pipeline_once,
    run_sweep,
    serialize_key,
)
from chirpkey.nist import (
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    frequency_test,
    linear_complexity_test,
    longest_run_test,
    non_overlapping_template_test,
    run_suite,
    spectral_fft_test,
)
from chirpkey.pipeline import rows_to_csv
from chirpkey.waveform import gen_preamble

from conftest import bits_from, constant_bits


class _Gate:
    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.start = time.perf_counter()

    def finish(self, ok: bool, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(
            f"CRITERION {self.number:>2} {self.name}: {verdict} "
            f"({elapsed:.1f}s of {self.budget:.0f}s budget){' — ' + detail if detail else ''}"
        )
        assert ok, f"criterion {self.number} ({self.name}): {detail}"
        assert elapsed < self.budget, f"criterion {self.number} over time budget"


def _monotone_non_increasing(values, allowed_violations=1, rel_slack=0.05):
    violations = 0
    for prev, cur in zip(values, values[1:]):
        if cur > prev:
            violations += 1
            if cur > prev * (1 + rel_slack):
                return False
    return violations <= allowed_violations


def test_criterion_01_waveform_exactness():
    gate = _Gate(1, "waveform phase exactness", 1.0)
    params = LoRaParams()
    chirp = gen_upchirp(params)
    t = np.arange(params.samples_per_symbol) / params.fs
    expected = np.pi * (-params.bw * t + params.sweep_rate * t * t)
    err = np.max(np.abs(np.unwrap(np.angle(chirp)) - expected))
    gate.finish(len(chirp) == 512 and err < 1e-9, f"max phase error {err:.2e} rad")


def test_criterion_02_ls_oracle_equivalence():
    gate = _Gate(2, "LS recovers analytic DFT", 10.0)
    params = LoRaParams()
    n = params.samples_per_symbol
    sym = gen_upchirp(params)
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(50):
        taps = rng.standard_normal(int(rng.integers(1, 9))) * 0.5
        taps = taps + 1j * rng.standard_normal(len(taps)) * 0.5
        rx_sym = np.fft.ifft(np.fft.fft(sym) * np.fft.fft(taps, n))
        rx = IqSamples(np.tile(rx_sym, params.preamble_len), params.fs)
        est = estimate_from_frame(rx, params).bins
        want = np.fft.fft(taps, n)
        rel = np.max(np.abs(est - want) / np.maximum(np.abs(want), 1e-12))
        worst = max(worst, rel)
    gate.finish(worst < 1e-9, f"worst relative error {worst:.2e}")


@pytest.mark.slow
def test_criterion_03_averaging_gain():
    gate = _Gate(3, "K=8 averaging gives 1/8 error variance", 60.0)
    params = LoRaParams()
    single = LoRaParams(preamble_len=1)
    n = params.samples_per_symbol
    trials = 10_000
    rng = np.random.default_rng(3)
    tx = gen_preamble(params)
    err8 = []
    err1 = []
    for _ in range(trials):
        noise = np.sqrt(10 ** (-10 / 10) / 2) * (
            rng.standard_normal(len(tx)) + 1j * rng.standard_normal(len(tx))
        )
        rx = IqSamples(tx + noise, params.fs)
        est8 = estimate_from_frame(rx, params, "occupied-band")
        est1 = estimate_from_frame(
            IqSamples(rx.samples[:n], params.fs), single, "occupied-band"
        )
        err8.append(est8.bins - 1.0)
        err1.append(est1.bins - 1.0)
    var8 = np.mean(np.abs(np.array(err8)) ** 2, axis=0)
    var1 = np.mean(np.abs(np.array(err1)) ** 2, axis=0)
    ratios = var8 / var1
    ok = np.all((ratios >= 0.125 * 0.85) & (ratios <= 0.125 * 1.15))
    gate.finish(
        bool(ok),
        f"per-bin ratio range [{ratios.min():.4f}, {ratios.max():.4f}] over {len(ratios)} bins",
    )


def test_criterion_04_alpha_sweep_trends():
    gate = _Gate(4, "alpha sweep: runs/SKDR fall without shuffle, flat with", 300.0)
    cfg = ExperimentConfig(
        trials=100, sweep_axis="alpha", sweep_values=(0.1, 0.3, 0.5, 0.7, 0.9)
    )
    rows = run_sweep(cfg)
    off = [r for r in rows if not r.shuffle]
    on = [r for r in rows if r.shuffle]
    ok_off = (
        _monotone_non_increasing([r.skdr_mean for r in off])
        and _monotone_non_increasing([r.l0_mean for r in off])
        and _monotone_non_increasing([r.l1_mean for r in off])
    )
    span_l0 = max(r.l0_mean for r in on) - min(r.l0_mean for r in on)
    span_l1 = max(r.l1_mean for r in on) - min(r.l1_mean for r in on)
    ok_on = span_l0 <= 3.0 and span_l1 <= 3.0
    gate.finish(
        ok_off and ok_on,
        f"off-arm L0 {[round(r.l0_mean,1) for r in off]}, "
        f"on-arm span L0 {span_l0:.2f} L1 {span_l1:.2f}",
    )


def test_criterion_05_block_size_sweep_trends():
    gate = _Gate(5, "block-size sweep: runs grow without shuffle, flat with", 300.0)
    cfg = ExperimentConfig(
        trials=100, sweep_axis="block_size", sweep_values=(16, 32, 64, 128, 256)
    )
    rows = run_sweep(cfg)
    off = [r for r in rows if not r.shuffle]
    on = [r for r in rows if r.shuffle]
    l0_off = [r.l0_mean for r in off]
    l1_off = [r.l1_mean for r in off]
    ok_off = all(b >= a for a, b in zip(l0_off, l0_off[1:])) and all(
        b >= a for a, b in zip(l1_off, l1_off[1:])
    )
    span_l0 = max(r.l0_mean for r in on) - min(r.l0_mean for r in on)
    span_l1 = max(r.l1_mean for r in on) - min(r.l1_mean for r in on)
    ok_on = span_l0 <= 3.0 and span_l1 <= 3.0
    gate.finish(
        ok_off and ok_on,
        f"off-arm L0 {np.round(l0_off,1).tolist()}, on-arm span L0 {span_l0:.2f} L1 {span_l1:.2f}",
    )


def test_criterion_06_shuffle_headline_ratio():
    gate = _Gate(6, "shuffle arm: >=300 bits at SKDR<=0.05, beats no-shuffle", 300.0)
    base = ExperimentConfig()
    off_cfg = replace(base, quantizer=replace(base.quantizer, shuffle_enabled=False))
    key_bits = []
    skdr_on = []
    wins = 0
    trials = 200
    # both arms distill each trial's one observation: paired realizations
    for r_on, r_off in islice(rounds(base, off_cfg), trials):
        key_bits.append(r_on.metrics.key_bits)
        skdr_on.append(r_on.metrics.skdr)
        wins += r_off.metrics.skdr > r_on.metrics.skdr
    mean_bits = float(np.mean(key_bits))
    mean_skdr = float(np.mean(skdr_on))
    win_frac = wins / trials
    gate.finish(
        mean_bits >= 300 and mean_skdr <= 0.05 and win_frac >= 0.80,
        f"mean bits {mean_bits:.0f}, mean SKDR {mean_skdr:.4f}, off>on in {win_frac:.0%}",
    )


@pytest.mark.slow
@pytest.mark.parametrize("length", [512, 2048])
def test_criterion_07_cascade_correctness(length):
    gate = _Gate(7, f"cascade corrects n={length} at three error rates", 300.0)
    rng = np.random.default_rng(700 + length)
    detail = []
    ok = True
    for qber in (0.01, 0.05, 0.11):
        wins = 0
        trials = 1000
        for t in range(trials):
            truth = rng.integers(0, 2, length).astype(np.uint8)
            noisy = truth.copy()
            flips = rng.choice(length, size=rng.binomial(length, qber), replace=False)
            noisy[flips] ^= 1
            audit: list[int] = []
            outcome = cascade(
                BitKey(noisy),
                LocalParityOracle(truth),
                CascadeConfig(qber_estimate=qber, rng_seed=t),
                on_flip=audit.append,
            )
            replay = noisy.copy()
            for pos in audit:
                assert replay[pos] != truth[pos], "flip landed on an agreeing bit"
                replay[pos] ^= 1
            wins += np.array_equal(outcome.corrected_key.bits, truth)
        detail.append(f"q={qber}: {wins}/{trials}")
        ok = ok and wins >= 990
    gate.finish(ok, "; ".join(detail))


def test_criterion_08_key_confirmation():
    gate = _Gate(8, "digest confirmation and independent hash oracle", 10.0)
    from cryptography.hazmat.primitives import hashes as crypto_hashes

    rng = np.random.default_rng(8)
    ok = True
    for _ in range(100):
        bits = rng.integers(0, 2, int(rng.integers(64, 512))).astype(np.uint8)
        ok = ok and confirm(BitKey(bits), BitKey(bits.copy())).matched
        flipped = bits.copy()
        flipped[rng.integers(0, len(bits))] ^= 1
        ok = ok and not confirm(BitKey(bits), BitKey(flipped)).matched
        h = crypto_hashes.Hash(crypto_hashes.SHA256())
        h.update(serialize_key(BitKey(bits)))
        ok = ok and h.finalize() == digest(BitKey(bits)).digest
    gate.finish(ok)


def test_criterion_09a_pipeline_keys_pass_randomness_gate():
    # NOTE: this clause fails by construction of the channel model: each
    # probing round contributes ~310 key bits but only 2*num_taps complex
    # degrees of freedom, so concatenated keys carry per-round structure
    # (P(1) drifts round to round with sigma ~ 0.05) that the frequency
    # family detects at this sample size with p-values near zero.  The
    # criterion is asserted as stated rather than weakened.
    gate = _Gate(9, "concatenated reconciled keys pass the suite", 120.0)
    keys = (result.reconciliation.corrected_key.bits for (result,) in rounds(ExperimentConfig()))
    chunks, total = [], 0
    while total < 100_000:
        chunks.append(next(keys))
        total += len(chunks[-1])
    report = run_suite(np.concatenate(chunks))
    failing = [r.name for r in report.results if r.applicable and not r.passed]
    gate.finish(
        report.overall_pass,
        f"{total} bits from {len(chunks)} rounds; failing: {failing or 'none'}",
    )


@pytest.mark.slow
def test_criterion_09b_reference_worked_examples():
    gate = _Gate(9, "reference worked examples within 1e-4", 120.0)
    pi100 = constant_bits("pi", 100)
    checks = [
        (frequency_test(pi100).p_value, 0.109599),
        (block_frequency_test(pi100, block_len=10).p_value, 0.706438),
        (cumulative_sums_test(pi100).p_value, 0.219194),
        (
            longest_run_test(bits_from(
                "11001100000101010110110001001100111000000000001001"
                "00110101010001000100111101011010000000110101111100"
                "1100111001101101100010110010"
            )).p_value,
            0.180609,
        ),
        (spectral_fft_test(constant_bits("e", 100)).p_value, 0.168669),
        (
            non_overlapping_template_test(
                bits_from("10100100101110010110"), "001", num_blocks=2
            ).p_value,
            0.344154,
        ),
        (approximate_entropy_test(pi100, m_pattern=2).p_value, 0.235301),
        (
            linear_complexity_test(constant_bits("e", 1_000_000), block_len=1000).p_value,
            0.845406,
        ),
    ]
    worst = max(abs(got - want) for got, want in checks)
    gate.finish(worst < 1e-4, f"worst |Δp| {worst:.2e} over {len(checks)} examples")


def test_criterion_09c_all_ones_fails_gate():
    gate = _Gate(9, "all-ones input fails the gate", 120.0)
    report = run_suite(np.ones(100_000, dtype=np.uint8))
    gate.finish(not report.overall_pass)


def test_criterion_10_eavesdropper_disagreement():
    gate = _Gate(10, "eavesdropper SKDR near one half", 120.0)
    eves = [result.eve_skdr for (result,) in islice(rounds(ExperimentConfig()), 100)]
    mean_eve = float(np.mean(eves))
    gate.finish(0.4 <= mean_eve <= 0.6, f"mean eavesdropper SKDR {mean_eve:.3f}")


def test_criterion_11_capture_path_equivalence(tmp_path):
    gate = _Gate(11, "capture replay is bit-exact with simulation", 60.0)
    cfg = ExperimentConfig()
    ok = True
    for seed in range(10):
        sim = run_pipeline_once(cfg, seed)
        paths = export_probe_captures(cfg, seed, tmp_path)
        rep = run_captures(
            replace(
                cfg,
                mode="captures",
                capture_a2g=paths["a2g"],
                capture_g2a=paths["g2a"],
                capture_eve=paths["eve"],
            ),
            trial_seed=seed,
        )
        ok = ok and np.array_equal(rep.key_a.bits, sim.key_a.bits)
        ok = ok and np.array_equal(
            rep.reconciliation.corrected_key.bits, sim.reconciliation.corrected_key.bits
        )
        ok = ok and rep.metrics == sim.metrics and rep.eve_skdr == sim.eve_skdr
        ok = ok and rep.confirmation.digest_g.hex == sim.confirmation.digest_g.hex

    # truncated capture: format error
    bad = tmp_path / "short.cf32"
    bad.write_bytes(b"\x00" * 12)
    with pytest.raises(CaptureFormatError):
        run_captures(
            replace(cfg, mode="captures", capture_a2g=str(bad), capture_g2a=str(bad))
        )
    # wrong spreading factor: preamble not found, file named
    paths = export_probe_captures(cfg, 0, tmp_path)
    with pytest.raises(PreambleNotFoundError, match="a2g"):
        run_captures(
            replace(
                cfg,
                lora=LoRaParams(sf=6),
                mode="captures",
                capture_a2g=paths["a2g"],
                capture_g2a=paths["g2a"],
            )
        )
    gate.finish(ok, "10 seeds bit-exact; error paths verified")


def test_criterion_12_sweep_determinism():
    gate = _Gate(12, "sweeps are byte-identical across runs", 300.0)
    cfg = ExperimentConfig(trials=25, sweep_axis="alpha", sweep_values=(0.3, 0.7))
    first = rows_to_csv(run_sweep(cfg))
    second = rows_to_csv(run_sweep(cfg))
    gate.finish(
        first.encode() == second.encode(),
        f"{len(first.splitlines()) - 1} rows compared",
    )

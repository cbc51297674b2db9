"""Quick end-to-end battery behind the ``selftest`` CLI verb.

A fast subset of the acceptance checks (the full suite lives in the test
tree): one PASS/FAIL line per check, exit status 0 only if all pass.
"""
from __future__ import annotations

import numpy as np

from .cfr import CfrAmplitudes, estimate_from_frame
from .config import ExperimentConfig
from .confirm import digest
from .errors import ParameterError
from .metrics import max_run_lengths, skdr
from .nist import run_suite
from .pipeline import run_trials
from .quantizer import BitKey, QuantizerConfig, block_thresholds, quantize_pipeline
from .reconciliation import CascadeConfig, LocalParityOracle, cascade
from .waveform import IqSamples, LoRaParams, gen_preamble, gen_upchirp


def _check_upchirp_phase() -> bool:
    params = LoRaParams()
    chirp = gen_upchirp(params)
    t = np.arange(params.samples_per_symbol) / params.fs
    want = np.pi * (-params.bw * t + params.sweep_rate * t * t)
    got = np.unwrap(np.angle(chirp.samples))
    return (
        len(chirp) == 512
        and np.max(np.abs(np.abs(chirp.samples) - 1.0)) < 1e-12
        and np.max(np.abs(got - want)) < 1e-9
    )


def _check_ls_recovery() -> bool:
    params = LoRaParams()
    rng = np.random.default_rng(7)
    taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    tx = gen_preamble(params).samples
    n = params.samples_per_symbol
    sym = tx[:n]
    rx_sym = np.fft.ifft(np.fft.fft(sym) * np.fft.fft(taps, n))
    rx = IqSamples(np.tile(rx_sym, params.preamble_len), params.fs)
    est = estimate_from_frame(rx, params)
    want = np.fft.fft(taps, n)
    return np.max(np.abs(est.bins - want)) < 1e-9


def _check_thresholds() -> bool:
    th = block_thresholds(CfrAmplitudes(np.arange(1.0, 6.0)), QuantizerConfig(block_size=5))
    return (
        abs(th.q_plus[0] - (3 + 0.5 * np.sqrt(2))) < 1e-12
        and abs(th.q_minus[0] - (3 - 0.5 * np.sqrt(2))) < 1e-12
    )


def _check_quantizer_agreement() -> bool:
    rng = np.random.default_rng(11)
    base = rng.rayleigh(size=512)
    amps = CfrAmplitudes(base)
    key_a, key_g, _ = quantize_pipeline(amps, amps, QuantizerConfig(shuffle_seed=3))
    return len(key_a) > 0 and skdr(key_a, key_g) == 0.0


def _check_cascade() -> bool:
    rng = np.random.default_rng(23)
    truth = rng.integers(0, 2, 512).astype(np.uint8)
    noisy = truth.copy()
    flips = rng.choice(512, size=26, replace=False)
    noisy[flips] ^= 1
    outcome = cascade(
        BitKey(noisy),
        LocalParityOracle(truth),
        CascadeConfig(qber_estimate=0.05, rng_seed=1),
    )
    return outcome.converged and np.array_equal(outcome.corrected_key.bits, truth)


def _check_digest_vector() -> bool:
    # Known-answer vector: bits 01000001 serialize to
    # 00 00 00 00 00 00 00 08 41; digest frozen from an independent backend.
    key = BitKey(np.array([0, 1, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
    return digest(key).hex == (
        "7a6152bd5127b53d7ab3037f477dbb7f75067491904feca60c8bc8cc71385791"
    )


def _check_pipeline_defaults() -> bool:
    results = run_trials(ExperimentConfig(trials=5))
    eve = np.mean([r.eve_skdr for r in results])
    return (
        all(r.metrics.skdr <= 0.05 for r in results)
        and all(r.metrics.key_bits >= 200 for r in results)
        and all(r.confirmation.matched for r in results)
        and 0.25 <= eve <= 0.75
    )


def _check_nist_prng() -> bool:
    bits = np.random.default_rng(123).integers(0, 2, 100_000).astype(np.uint8)
    report = run_suite(bits)
    all_ones = run_suite(np.ones(10_000, dtype=np.uint8))
    return report.overall_pass and not all_ones.overall_pass


def _check_run_lengths() -> bool:
    return max_run_lengths(np.array([0, 0, 0, 1, 1, 0, 0], dtype=np.uint8)) == (3, 2)


CHECKS = (
    ("upchirp-phase-closed-form", _check_upchirp_phase),
    ("ls-estimate-analytic-taps", _check_ls_recovery),
    ("dual-threshold-worked-example", _check_thresholds),
    ("quantizer-identical-inputs-agree", _check_quantizer_agreement),
    ("cascade-corrects-5pct-errors", _check_cascade),
    ("digest-known-answer", _check_digest_vector),
    ("pipeline-defaults-round", _check_pipeline_defaults),
    ("nist-prng-pass-allones-fail", _check_nist_prng),
    ("max-run-lengths", _check_run_lengths),
)


def run_selftest() -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            ok = check()
        except ParameterError as exc:
            ok = False
            print(f"FAIL {name} (error: {exc})")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1

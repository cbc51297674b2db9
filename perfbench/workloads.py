"""The benchmark's workloads: seeded inputs, the op, its traced twin, checks.

Each workload is a closed loop with one caller and no threads: the next op
starts when the previous one returns.  Inputs are made from the workload
seed alone; the program only ever sees the generated configs, trial
indices, key pairs and bit streams.

``run`` is the op as a user calls it.  ``run_traced`` does the same work by
calling the public functions of each module in the order
``pipeline._pipeline_from_frames`` does, with a span around every call; the
benchmark checks that both give the same digest, so the decomposition
cannot drift from the pipeline.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from chirpkey import nist
from chirpkey.captures import ingest_capture, write_capture
from chirpkey.cfr import estimate_from_frame
from chirpkey.config import ExperimentConfig
from chirpkey.confirm import confirm, digest
from chirpkey.errors import ParameterError, PreambleNotFoundError
from chirpkey.metrics import report as metrics_report
from chirpkey.metrics import skdr
from chirpkey.pipeline import (
    PipelineResult,
    export_probe_captures,
    run_captures,
    run_pipeline_once,
    simulate_probe_frames,
)
from chirpkey.pipeline_seeds import derive_trial_seeds
from chirpkey.quantizer import (
    BitKey,
    block_thresholds,
    censoring_exchange,
    quantize,
    shuffle,
)
from chirpkey.reconciliation import (
    CascadeConfig,
    LocalParityOracle,
    cascade,
    consume_positions,
    estimate_qber,
)
from chirpkey.waveform import IqSamples, detect_preamble

# errors a round may raise by design; they count as failed ops, any other
# exception stops the benchmark
EXPECTED_ERRORS = (PreambleNotFoundError, ParameterError)

# trial indices of seed s start at s * TRIAL_STRIDE, so seeds never share a trial
TRIAL_STRIDE = 1_000_000


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


# --- traced decomposition of one round -------------------------------------

def _aligned(capture: IqSamples, params, tr) -> IqSamples:
    """``pipeline.aligned_frame`` with the detector call in a span."""
    with tr.span("waveform.detect_preamble"):
        offset = detect_preamble(capture, params)
    n = params.preamble_len * params.samples_per_symbol
    if offset + n > len(capture.samples):
        raise ParameterError(f"detected preamble at {offset} runs past the capture end")
    return IqSamples(capture.samples[offset : offset + n], capture.fs)


def _distill(rx_g, rx_a, rx_e, config: ExperimentConfig, seeds, tr) -> PipelineResult:
    """``pipeline._pipeline_from_frames``, one span per public call."""
    with tr.span("cfr.estimate"):
        amps_g = estimate_from_frame(rx_g, config.lora, config.bin_policy).amplitudes()
    with tr.span("cfr.estimate"):
        amps_a = estimate_from_frame(rx_a, config.lora, config.bin_policy).amplitudes()

    qcfg = config.quantizer
    with tr.span("quantizer.exchange"):
        if qcfg.shuffle_enabled:
            qcfg = replace(qcfg, shuffle_seed=seeds.shuffle)
            amps_a = shuffle(amps_a, qcfg.shuffle_seed)
            amps_g = shuffle(amps_g, qcfg.shuffle_seed)
        retained, th_a, th_g = censoring_exchange(amps_a, amps_g, qcfg)
        key_a = quantize(amps_a, retained, th_a, qcfg.encoding, qcfg.block_size)
        key_g = quantize(amps_g, retained, th_g, qcfg.encoding, qcfg.block_size)
    tr.count("quantizer.retained_ratio", len(retained) / len(amps_a))
    if len(key_g) == 0:
        raise ParameterError("quantization censored every position; lower alpha")

    with tr.span("metrics.report"):
        scores = metrics_report(key_a, key_g, probes=1)

    eve_skdr = None
    if rx_e is not None:
        with tr.span("quantizer.eve"):
            with tr.span("cfr.estimate"):
                amps_e = estimate_from_frame(rx_e, config.lora, config.bin_policy).amplitudes()
            if qcfg.shuffle_enabled:
                amps_e = shuffle(amps_e, qcfg.shuffle_seed)
            th_e = block_thresholds(amps_e, qcfg)
            key_e = quantize(amps_e, retained, th_e, qcfg.encoding, qcfg.block_size)
            with tr.span("metrics.skdr"):
                eve_skdr = skdr(key_e, key_g)

    work_a, work_g = key_a, key_g
    qber = config.cascade.qber_estimate
    if isinstance(qber, str):
        with tr.span("reconciliation.qber"):
            sample = estimate_qber(key_a, key_g, config.qber_sample_fraction, seeds.qber)
            qber = sample.estimate
            work_a = consume_positions(key_a, sample.positions)
            work_g = consume_positions(key_g, sample.positions)
    tr.count("reconciliation.qber_gap", float(qber) - scores.skdr)
    cascade_cfg = CascadeConfig(
        num_passes=config.cascade.num_passes,
        qber_estimate=float(qber),
        rng_seed=seeds.cascade,
    )
    flips: list[int] = []
    with tr.span("reconciliation.cascade"):
        outcome = cascade(work_a, LocalParityOracle(work_g), cascade_cfg, on_flip=flips.append)
    tr.count("reconciliation.parity_bits", outcome.parity_bits_leaked)
    tr.count("reconciliation.messages", outcome.parity_messages)
    tr.count("reconciliation.flips", len(flips))
    reconciled_g = replace(work_g, stage="reconciled")
    with tr.span("confirm.digest"):
        confirmation = confirm(outcome.corrected_key, reconciled_g)

    return PipelineResult(
        metrics=scores,
        reconciliation=outcome,
        confirmation=confirmation,
        eve_skdr=eve_skdr,
        key_a=key_a,
        key_g=key_g,
        reconciled_key_g=reconciled_g,
        qber_estimate=float(qber),
    )


# --- round workloads ---------------------------------------------------------

@dataclass(frozen=True)
class RoundRecord:
    digest: bytes            # confirmation digests of A and G
    confirmed: bool
    honest: bool             # confirmation agrees with a direct key comparison
    secret_bits: int         # max(0, reconciled length - leaked parity)
    eve_skdr: float
    leak: int
    shannon_bits: float      # n * h(QBER cascade was given): the least leak possible


def round_digest(result: PipelineResult) -> bytes:
    return result.confirmation.digest_a.digest + result.confirmation.digest_g.digest


class Workload:
    """Hooks a workload may leave as they are."""

    def after_op(self) -> None:
        """Clean up after an op, untimed."""

    def close(self) -> None:
        """Release what the workload holds once the run ends."""

    def notes(self) -> list[str]:
        """Lines for the human-readable output, once ``check`` has run."""
        return []


class _Rounds(Workload):
    def __init__(self, seed: int, workdir) -> None:
        self.base = seed * TRIAL_STRIDE

    def make_input(self, i: int) -> tuple[ExperimentConfig, int]:
        raise NotImplementedError

    def describe(self, i: int) -> str:
        config, trial = self.make_input(i)
        return (f"trial {trial}, master seed {config.master_seed}, "
                f"sf {config.lora.sf}, snr {config.channel.snr_db:g} dB")

    def summarize(self, inp, result: PipelineResult) -> RoundRecord:
        n = len(result.reconciled_key_g)
        leak = result.reconciliation.parity_bits_leaked
        equal = np.array_equal(result.reconciliation.corrected_key.bits,
                               result.reconciled_key_g.bits)
        return RoundRecord(
            digest=round_digest(result),
            confirmed=result.confirmation.matched,
            honest=result.confirmation.matched == equal,
            secret_bits=max(0, n - leak),
            eve_skdr=float(result.eve_skdr),
            leak=leak,
            shannon_bits=n * binary_entropy(result.qber_estimate),
        )

    def quality(self, records: list) -> dict[str, float]:
        ok = [r for r in records if r is not None]
        shannon = sum(r.shannon_bits for r in ok)
        return {
            "confirm_ok_ratio": sum(r.confirmed for r in ok) / len(records),
            "secret_bits_per_op": sum(r.secret_bits for r in ok) / len(records),
            "eve_skdr_mean": float(np.mean([r.eve_skdr for r in ok])) if ok else 0.0,
            "leak_efficiency_f": sum(r.leak for r in ok) / shannon if shannon else 0.0,
        }

    def check(self, records: list) -> list[str]:
        bad = [i for i, r in enumerate(records) if r is not None and not r.honest]
        return [f"rounds {bad[:5]}: confirmation disagrees with the keys"] if bad else []


class RoundDefault(_Rounds):
    """``run_pipeline_once`` with the reference config on consecutive trials."""

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        self.config = ExperimentConfig()

    def make_input(self, i: int):
        return self.config, self.base + i

    def run(self, inp) -> PipelineResult:
        config, trial = inp
        return run_pipeline_once(config, trial)

    def run_traced(self, inp, tr) -> PipelineResult:
        config, trial = inp
        seeds = derive_trial_seeds(config.master_seed, trial)
        with tr.span("channel.simulate"):
            frames = simulate_probe_frames(config, seeds)
        rx_g, rx_a, rx_e = (_aligned(rx, config.lora, tr) for rx in frames)
        return _distill(rx_g, rx_a, rx_e, config, seeds, tr)


# timed cells: no op fails at 5 dB or above (none in 9000 SF7 trials at
# 5 dB, one in 3000 at 3 dB), so every run attempts the same kind of op
REPLAY_CELLS = [(sf, snr) for sf in (7, 8, 9) for snr in (5.0, 10.0, 50.0)]
# untimed cells: at 0 dB a few percent of rounds raise PreambleNotFoundError,
# so failure accounting is checked here, on a fixed number of trials, rather
# than left to vary with the number of ops a timed run gets through
MISS_CELLS = [(sf, 0.0) for sf in (7, 8, 9)]


def _cell_config(ref: ExperimentConfig, sf: int, snr: float) -> ExperimentConfig:
    return replace(ref, lora=replace(ref.lora, sf=sf), channel=replace(ref.channel, snr_db=snr))


class RoundReplay(_Rounds):
    """``export_probe_captures`` then ``run_captures``, on every SF x SNR cell.

    One op is one pass over the cells with the same trial index, so the
    ``LoRaParams`` change on every call inside an op, and every op does the
    same mix of work: with one round per op the op times fell into three
    modes, one per SF, and the tail percentile swung between runs.
    """

    # ops checked against run_pipeline_once: every cell of the first 10 trials
    VERIFY_OPS = 10
    # trials of every 0 dB cell run through both paths after the timed loop
    MISS_TRIALS = 20

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        ref = ExperimentConfig()
        self.configs = [_cell_config(ref, sf, snr) for sf, snr in REPLAY_CELLS]
        self.miss_configs = [_cell_config(ref, sf, snr) for sf, snr in MISS_CELLS]
        self.dir = tempfile.mkdtemp(prefix="captures-", dir=workdir)
        self.misses: list[str] = []

    def make_input(self, i: int) -> list[tuple[ExperimentConfig, int]]:
        return [(config, self.base + i) for config in self.configs]

    def describe(self, i: int) -> str:
        return (f"trial {self.base + i}, master seed {self.configs[0].master_seed}, "
                f"(sf, snr dB) cells {REPLAY_CELLS}")

    def _replay(self, config: ExperimentConfig, trial: int) -> PipelineResult:
        paths = export_probe_captures(config, trial, self.dir)
        replay = replace(config, mode="captures", capture_a2g=paths["a2g"],
                         capture_g2a=paths["g2a"], capture_eve=paths["eve"])
        return run_captures(replay, trial)

    def _replay_traced(self, config: ExperimentConfig, trial: int, tr) -> PipelineResult:
        seeds = derive_trial_seeds(config.master_seed, trial)
        with tr.span("channel.simulate"):
            frames = simulate_probe_frames(config, seeds)
        paths = [os.path.join(self.dir, f"trial{trial}_{leg}.cf32")
                 for leg in ("a2g", "g2a", "eve")]
        for path, rx in zip(paths, frames):
            with tr.span("captures.write"):
                write_capture(path, rx)
        aligned = []
        for path in paths:
            with tr.span("captures.ingest"):
                cap = ingest_capture(path, config.lora)
            aligned.append(_aligned(cap, config.lora, tr))
        return _distill(*aligned, config, seeds, tr)

    def run(self, rounds) -> list[PipelineResult]:
        return [self._replay(config, trial) for config, trial in rounds]

    def run_traced(self, rounds, tr) -> list[PipelineResult]:
        return [self._replay_traced(config, trial, tr) for config, trial in rounds]

    def summarize(self, rounds, results) -> list[RoundRecord]:
        return [super(RoundReplay, self).summarize(inp, result)
                for inp, result in zip(rounds, results)]

    def _rounds(self, ops: list) -> list:
        """Round records of all ops in order; a failed op's rounds are None."""
        return [r for op in ops for r in (op or [None] * len(self.configs))]

    def quality(self, ops: list) -> dict[str, float]:
        return super().quality(self._rounds(ops))

    @staticmethod
    def _simulated(config: ExperimentConfig, trial: int) -> bytes | None:
        try:
            return round_digest(run_pipeline_once(config, trial))
        except EXPECTED_ERRORS:
            return None

    def check(self, ops: list) -> list[str]:
        """Replay and simulation agree on the digest, and raise on the same trials.

        The timed ops are compared as they ran; the 0 dB trials, where some
        rounds find no preamble, run through both paths here.
        """
        problems = super().check(self._rounds(ops))
        for i, op in enumerate(ops[: self.VERIFY_OPS]):
            simulated = [self._simulated(*inp) for inp in self.make_input(i)]
            expected = None if None in simulated else simulated
            replayed = None if op is None else [r.digest for r in op]
            if replayed != expected:
                problems.append(f"replay != simulate for {self.describe(i)}")
        for config in self.miss_configs:
            failed = 0
            for trial in range(self.base, self.base + self.MISS_TRIALS):
                try:
                    replayed = round_digest(self._replay(config, trial))
                except EXPECTED_ERRORS:
                    replayed = None
                self.after_op()
                failed += replayed is None
                if replayed != self._simulated(config, trial):
                    problems.append(f"replay != simulate for trial {trial}, master seed "
                                    f"{config.master_seed}, sf {config.lora.sf}, snr 0 dB")
            self.misses.append(f"sf {config.lora.sf}: {failed}/{self.MISS_TRIALS}")
        return problems

    def notes(self) -> list[str]:
        return [f"untimed 0 dB failed_ratio, replay and simulate agreeing: "
                f"{', '.join(self.misses)}"]

    def after_op(self) -> None:
        for entry in os.scandir(self.dir):
            os.remove(entry.path)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# --- cascade grid ------------------------------------------------------------

@dataclass(frozen=True)
class GridInput:
    n: int
    q: float                 # the true error rate, which cascade is also given
    truth: np.ndarray
    noisy: np.ndarray
    rng_seed: int


@dataclass(frozen=True)
class GridRecord:
    digest: bytes
    exact: bool
    confirmed: bool
    converged: bool
    secret_bits: int
    efficiency_f: float


GRID_CELLS = [(n, q) for n in (512, 2048) for q in (0.01, 0.05, 0.11)]


class CascadeGrid(Workload):
    """``cascade()`` on key pairs with exactly round(q*n) flipped bits.

    Leak efficiency is f = leak / (n * h(q)) (Martinez-Mateo et al.,
    "Demystifying the Information Reconciliation Protocol Cascade", 2015);
    f = 1 is the Shannon limit.

    One op is one pass over the grid, a key pair per cell, so every op does
    the same mix of work and the op-time median sits inside one mode rather
    than between the n=512 and n=2048 ones.
    """

    cells = [f"n{n}_q{q:g}" for n, q in GRID_CELLS]

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def make_input(self, i: int) -> list[GridInput]:
        pairs = []
        for c, (n, q) in enumerate(GRID_CELLS):
            rng = np.random.default_rng((self.seed, i, c))
            truth = rng.integers(0, 2, n, dtype=np.uint8)
            noisy = truth.copy()
            errors = round(q * n)
            noisy[rng.choice(n, size=errors, replace=False)] ^= 1
            pairs.append(GridInput(n, errors / n, truth, noisy, int(rng.integers(2**31))))
        return pairs

    def describe(self, i: int) -> str:
        return f"key pairs from rng seeds ({self.seed}, {i}, cell)"

    def run(self, pairs: list[GridInput]):
        return [cascade(BitKey(p.noisy), LocalParityOracle(p.truth),
                        CascadeConfig(qber_estimate=p.q, rng_seed=p.rng_seed))
                for p in pairs]

    def run_traced(self, pairs: list[GridInput], tr):
        outcomes = []
        for cell, p in zip(self.cells, pairs):
            flips: list[int] = []
            with tr.span(f"reconciliation.cascade.{cell}"):
                outcome = cascade(BitKey(p.noisy), LocalParityOracle(p.truth),
                                  CascadeConfig(qber_estimate=p.q, rng_seed=p.rng_seed),
                                  on_flip=flips.append)
            tr.count("reconciliation.parity_bits", outcome.parity_bits_leaked)
            tr.count("reconciliation.messages", outcome.parity_messages)
            tr.count("reconciliation.flips", len(flips))
            outcomes.append(outcome)
        return outcomes

    def summarize(self, pairs: list[GridInput], outcomes) -> list[GridRecord]:
        records = []
        for p, outcome in zip(pairs, outcomes):
            corrected = outcome.corrected_key
            leak = outcome.parity_bits_leaked
            records.append(GridRecord(
                digest=digest(corrected).digest + struct.pack(">QQ", leak,
                                                              outcome.parity_messages),
                exact=bool(np.array_equal(corrected.bits, p.truth)),
                confirmed=confirm(corrected, BitKey(p.truth)).matched,
                converged=outcome.converged,
                secret_bits=max(0, p.n - leak),
                efficiency_f=leak / (p.n * binary_entropy(p.q)),
            ))
        return records

    def cell_efficiency(self, ops: list) -> dict[str, float]:
        return {cell: float(np.mean([op[c].efficiency_f for op in ops]))
                for c, cell in enumerate(self.cells)}

    def quality(self, ops: list) -> dict[str, float]:
        keys = [r for op in ops for r in op]
        return {
            "confirm_ok_ratio": float(np.mean([r.confirmed for r in keys])),
            "secret_bits_per_op": float(np.mean([sum(r.secret_bits for r in op) for op in ops])),
            "leak_efficiency_f": float(np.mean(list(self.cell_efficiency(ops).values()))),
            "residual_error_ratio": float(np.mean([not r.exact for r in keys])),
        }

    def check(self, ops: list) -> list[str]:
        problems = []
        for i, op in enumerate(ops):
            for cell, r in zip(self.cells, op):
                if r.confirmed != r.exact:
                    problems.append(f"op {i} {cell}: confirmation disagrees with the keys")
                if r.exact and not r.converged:
                    problems.append(f"op {i} {cell}: equal keys reported as not converged")
        return problems


# --- NIST battery --------------------------------------------------------------

# 10^5 bits: a 10^6-bit stream takes ~3.3 s per op, too few ops per run for
# a steady median on a shared machine; 10^5 runs the same eight tests
STREAM_BITS = 100_000


@dataclass(frozen=True)
class NistRecord:
    digest: bytes
    problems: tuple[str, ...]
    passed: int


class NistStream(Workload):
    """``run_suite`` on a fresh seeded 10^5-bit stream per op."""

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed

    def make_input(self, i: int) -> np.ndarray:
        return np.random.default_rng((self.seed, i)).integers(0, 2, STREAM_BITS, dtype=np.uint8)

    def describe(self, i: int) -> str:
        return f"bit stream from rng seed ({self.seed}, {i})"

    def run(self, bits: np.ndarray):
        return nist.run_suite(bits)

    def run_traced(self, bits: np.ndarray, tr):
        results = []
        for name in nist.TEST_NAMES:
            with tr.span(f"nist.{name}"):
                results.append(getattr(nist, f"{name}_test")(bits))
        return nist.NistReport(tuple(results))

    def summarize(self, bits: np.ndarray, report) -> NistRecord:
        problems = []
        if tuple(r.name for r in report.results) != nist.TEST_NAMES:
            problems.append("tests missing or out of order")
        for r in report.results:
            if not r.applicable or not (0.0 <= r.p_value <= 1.0):
                problems.append(f"{r.name}: p-value {r.p_value} at {len(bits)} bits")
        # the monobit p-value, computed independently
        s = 2 * int(bits.sum()) - len(bits)
        expected = math.erfc(abs(s) / math.sqrt(2 * len(bits)))
        if not math.isclose(report.results[0].p_value, expected, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"frequency p-value {report.results[0].p_value} != {expected}")
        return NistRecord(
            digest=hashlib.sha256(report.to_csv().encode()).digest(),
            problems=tuple(problems),
            passed=sum(r.passed for r in report.results),
        )

    def quality(self, records: list) -> dict[str, float]:
        passed = np.mean([r.passed for r in records])
        return {"tests_passed_ratio": float(passed) / len(nist.TEST_NAMES)}

    def check(self, records: list) -> list[str]:
        return [f"op {i}: {p}" for i, r in enumerate(records) for p in r.problems]


WORKLOADS = {
    "round-default": RoundDefault,
    "round-replay": RoundReplay,
    "cascade-grid": CascadeGrid,
    "nist-stream": NistStream,
}

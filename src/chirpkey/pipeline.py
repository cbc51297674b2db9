"""End-to-end key generation runs, sweeps, and capture replay.

One trial is one observation and one distillation.  ``observe`` probes the
channel and estimates the parties' CFR amplitudes; ``distill`` quantizes
both parties' amplitudes into initial keys, scores them, estimates the
disagreement rate (consuming the sampled bits), cascade-reconciles, and
confirms by digest exchange.  The eavesdropper runs the identical public
steps against its own amplitudes (shared shuffle rule, its own thresholds,
the overheard retained-index list): its row rides in the same
``quantizer.quantize_pipeline`` call as A's and G's.

Simulated received frames are rounded to capture depth (complex64), the
cf32 layout SDR file sinks write, and stay there: written to and read from
capture files without a copy, they are widened to complex128 only inside
the aligner and the estimator.  Every stage reads frames only at that
depth, so serializing them to capture files and replaying through
``run_captures`` reproduces a simulate-mode trial bit-for-bit.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from itertools import count, islice

import numpy as np

from .captures import CAPTURE_DTYPE, ingest_capture, write_capture
from .cfr import estimate_from_frame
from .channel import receive
from .config import ExperimentConfig, with_sweep_value
from .confirm import ConfirmationResult, confirm
from .errors import ParameterError, PreambleNotFoundError
from .metrics import MetricsReport
from .metrics import report as metrics_report
from .metrics import skdr as skdr_of
from .pipeline_seeds import TrialSeeds, derive_trial_seeds
from .quantizer import BitKey, quantize_pipeline
from .reconciliation import (
    LocalParityOracle,
    QberSample,
    ReconciliationOutcome,
    cascade,
    consume_positions,
    estimate_qber,
)
from .waveform import IqSamples, detect_preamble, gen_preamble


@dataclass(frozen=True)
class PipelineResult:
    metrics: MetricsReport
    reconciliation: ReconciliationOutcome
    confirmation: ConfirmationResult
    eve_skdr: float | None
    key_a: BitKey
    key_g: BitKey
    reconciled_key_g: BitKey
    qber_estimate: float


# CSV text of an ExperimentRow field by its declared type (a string under
# postponed annotations); other types print with str
_CSV_FORMAT = {"bool": lambda on: "on" if on else "off", "float": lambda x: f"{x:.10g}"}


@dataclass(frozen=True)
class ExperimentRow:
    sweep_axis: str
    sweep_value: float
    shuffle: bool
    skdr_mean: float
    skdr_std: float
    skgr_mean: float
    l0_mean: float
    l1_mean: float
    eve_skdr_mean: float
    cascade_converged_frac: float
    leak_mean: float
    trials: int
    seed: int

    def to_csv(self) -> str:
        return ",".join(_CSV_FORMAT.get(f.type, str)(getattr(self, f.name))
                        for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


def simulate_probe_frames(
    config: ExperimentConfig, trial_seeds: TrialSeeds
) -> tuple[IqSamples, IqSamples, IqSamples]:
    """Received frames at G, A, and the eavesdropper for one probing round.

    Each frame is followed by one symbol of silence, room for the aligner's
    slice, and is held at capture depth (``CAPTURE_DTYPE``): the samples
    export_probe_captures serializes, which ingest_capture reads back.
    """
    tx = gen_preamble(config.lora)
    n = len(tx)
    s = trial_seeds
    frames = []
    for rx in receive(tx, config.channel, (s.channel, s.noise_g, s.noise_a, s.noise_e)):
        frame = np.zeros(n + config.lora.samples_per_symbol, dtype=CAPTURE_DTYPE)
        frame[:n] = rx
        frames.append(IqSamples(frame, config.lora.fs))
    return tuple(frames)


@dataclass(frozen=True)
class Observation:
    """One probing round at the CFR: the trial's seeds and the read-only CFR
    amplitudes of G, A and the eavesdropper (None without its capture)."""

    seeds: TrialSeeds
    amps_g: np.ndarray
    amps_a: np.ndarray
    amps_e: np.ndarray | None


def _amplitudes(capture: IqSamples, config: ExperimentConfig) -> np.ndarray:
    """One party's front end, for simulate and replay alike: locate the
    preamble and estimate the CFR amplitudes of the K symbols from there on."""
    offset = detect_preamble(capture, config.lora)
    frame = IqSamples(capture.samples[offset:], capture.fs)
    amps = estimate_from_frame(frame, config.lora, config.bin_policy).amplitudes()
    amps.setflags(write=False)  # shared by every arm that distills it
    return amps


def observe(config: ExperimentConfig, trial_seed: int) -> Observation:
    """Simulate one probing round and run each party's front end on its frame."""
    seeds = derive_trial_seeds(config.master_seed, trial_seed)
    frames = simulate_probe_frames(config, seeds)
    return Observation(seeds, *(_amplitudes(rx, config) for rx in frames))


def distill(observation: Observation, config: ExperimentConfig) -> PipelineResult:
    """Distill keys from one observation under the config's quantizer and cascade."""
    seeds = observation.seeds
    qcfg = replace(config.quantizer, shuffle_seed=seeds.shuffle)
    parties = [observation.amps_a, observation.amps_g]
    if observation.amps_e is not None:
        parties.append(observation.amps_e)
    keys, _ = quantize_pipeline(parties, qcfg)
    key_a, key_g = keys[:2]
    if len(key_g) == 0:
        raise ParameterError("quantization censored every position; lower alpha")

    scores = metrics_report(key_a, key_g)
    eve_skdr = skdr_of(keys[2], key_g) if len(keys) > 2 else None

    # disagreement-rate estimation consumes its disclosed sample
    work_a, work_g = key_a, key_g
    qber = config.cascade.qber_estimate
    if isinstance(qber, str):
        sample: QberSample = estimate_qber(
            key_a, key_g, config.qber_sample_fraction, seeds.qber
        )
        qber = sample.estimate
        work_a = consume_positions(key_a, sample.positions)
        work_g = consume_positions(key_g, sample.positions)
    cascade_cfg = replace(config.cascade, qber_estimate=float(qber), rng_seed=seeds.cascade)
    outcome = cascade(work_a, LocalParityOracle(work_g), cascade_cfg)
    reconciled_g = replace(work_g, stage="reconciled")
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


def run_pipeline_once(config: ExperimentConfig, trial_seed: int) -> PipelineResult:
    """One simulated probing-and-distillation round."""
    return distill(observe(config, trial_seed), config)


def run_captures(config: ExperimentConfig, trial_seed: int = 0) -> PipelineResult:
    """Replay recorded receptions instead of simulating the channel.

    Requires capture paths for the A->G and G->A receptions (and optionally
    the eavesdropper's).  Preambles are located by correlation before
    estimation; the observation is then distilled as in simulate mode.
    """
    if not config.capture_a2g or not config.capture_g2a:
        raise ParameterError("captures mode needs capture_a2g and capture_g2a paths")
    seeds = derive_trial_seeds(config.master_seed, trial_seed)

    def amplitudes_from(path) -> np.ndarray:
        cap = ingest_capture(path, config.lora)
        try:
            return _amplitudes(cap, config)
        except (PreambleNotFoundError, ParameterError) as exc:
            # a capture too short for the configured preamble cannot contain it
            raise PreambleNotFoundError(f"{path}: {exc}") from exc

    amps = [amplitudes_from(path) if path else None
            for path in (config.capture_a2g, config.capture_g2a, config.capture_eve)]
    return distill(Observation(seeds, *amps), config)


def export_probe_captures(config: ExperimentConfig, trial_seed: int, directory) -> dict:
    """Simulate one round and serialize the three receptions as capture files."""
    seeds = derive_trial_seeds(config.master_seed, trial_seed)
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for leg, rx in zip(("a2g", "g2a", "eve"), simulate_probe_frames(config, seeds)):
        paths[leg] = os.path.join(directory, f"trial{trial_seed}_{leg}.cf32")
        write_capture(paths[leg], rx)
    return paths


def _mean(values) -> float:
    """The mean; NaN for no values, where numpy would warn."""
    return float(np.mean(values)) if len(values) else float("nan")


def aggregate(
    results: list[PipelineResult],
    axis: str,
    value: float,
    shuffle_on: bool,
    seed: int,
) -> ExperimentRow:
    skdrs = np.array([r.metrics.skdr for r in results])
    eves = np.array([r.eve_skdr for r in results if r.eve_skdr is not None], dtype=float)
    return ExperimentRow(
        sweep_axis=axis,
        sweep_value=value,
        shuffle=shuffle_on,
        skdr_mean=_mean(skdrs),
        skdr_std=float(skdrs.std()) if skdrs.size else float("nan"),
        skgr_mean=_mean([r.metrics.skgr_bits_per_probe for r in results]),
        l0_mean=_mean([r.metrics.l0 for r in results]),
        l1_mean=_mean([r.metrics.l1 for r in results]),
        eve_skdr_mean=_mean(eves),
        cascade_converged_frac=_mean([r.reconciliation.converged for r in results]),
        leak_mean=_mean([r.reconciliation.parity_bits_leaked for r in results]),
        trials=len(results),
        seed=seed,
    )


def rounds(*arms: ExperimentConfig) -> Iterator[tuple[PipelineResult | None, ...]]:
    """Trials 0, 1, 2, ... without end: per trial, one result per arm, in arm order.

    Within a trial, arms that agree on everything ``observe`` reads besides
    the trial index share one observation; only that trial's are held.  An
    observation that finds no preamble leaves every arm sharing it out of
    the trial: their results are None, and one stderr line names the trial,
    the channel and the error.  Any other error ends the rounds.
    """
    channels = [(arm.lora, arm.channel, arm.bin_policy, arm.master_seed) for arm in arms]
    for t in count():
        observed, results = {}, []
        for arm, channel in zip(arms, channels):
            if channel not in observed:
                try:
                    observed[channel] = observe(arm, t)
                except PreambleNotFoundError as exc:
                    observed[channel] = None
                    print(f"trial {t} left out at {arm.channel}: {exc}", file=sys.stderr)
            obs = observed[channel]
            results.append(None if obs is None else distill(obs, arm))
        yield tuple(results)


def run_trials(config: ExperimentConfig) -> list[PipelineResult]:
    """``config.trials`` independent seeded rounds, less those ``rounds`` leaves out."""
    return [result for (result,) in islice(rounds(config), config.trials) if result is not None]


def run_sweep(config: ExperimentConfig) -> list[ExperimentRow]:
    """Paired shuffle-on/off trials for every sweep value.

    Every arm is built before the first trial, then all arms run trial by
    trial: both shuffle arms, and every value of an alpha or block_size
    sweep, see identical CFRs, so row differences are attributable to the
    distillation alone.
    """
    if config.sweep_axis is None:
        raise ParameterError("config has no sweep axis")
    labels, arms = [], []
    for value in config.sweep_values:
        pinned = with_sweep_value(config, config.sweep_axis, value)
        for shuffle_on in (True, False):
            labels.append((value, shuffle_on))
            arms.append(replace(
                pinned, quantizer=replace(pinned.quantizer, shuffle_enabled=shuffle_on)))
    columns = zip(*islice(rounds(*arms), config.trials))
    return [aggregate([r for r in results if r is not None], config.sweep_axis, value,
                      shuffle_on, config.master_seed)
            for (value, shuffle_on), results in zip(labels, columns)]


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    return "".join(line + "\n" for line in [CSV_HEADER, *(row.to_csv() for row in rows)])

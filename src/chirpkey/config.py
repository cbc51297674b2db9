"""Experiment configuration: defaults, INI-style files, flag overrides.

The file format is flat ``key = value`` lines under bracketed section
headers ([lora], [channel], [quantizer], [cascade], [experiment]).  Every
field has a default matching the reference deployment (SF 7, bandwidth
250 kHz, sample rate 1 MHz, 8-symbol preamble), so an empty config runs
the standard setup.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .cfr import BIN_POLICIES
from .channel import ChannelModel, exponential_profile
from .errors import ParameterError
from .quantizer import QuantizerConfig
from .reconciliation import CascadeConfig
from .waveform import LoRaParams

SWEEP_AXES = ("alpha", "block_size", "snr")
MODES = ("simulate", "captures")

CSV_HEADER = (
    "sweep_axis,sweep_value,shuffle,skdr_mean,skdr_std,skgr_mean,"
    "l0_mean,l1_mean,eve_skdr_mean,cascade_converged_frac,leak_mean,trials,seed"
)


@dataclass(frozen=True)
class ExperimentConfig:
    lora: LoRaParams = field(default_factory=LoRaParams)
    channel: ChannelModel = field(default_factory=ChannelModel)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    bin_policy: str = "all-bins"
    qber_sample_fraction: float = 0.1
    trials: int = 100
    master_seed: int = 1
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    mode: str = "simulate"
    capture_a2g: str | None = None
    capture_g2a: str | None = None
    capture_eve: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.bin_policy not in BIN_POLICIES:
            raise ParameterError(f"bin_policy must be one of {BIN_POLICIES}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ParameterError(f"sweep_axis must be one of {SWEEP_AXES}")
            if not self.sweep_values:
                raise ParameterError("sweep_values must be non-empty when sweeping")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"cannot parse boolean from {text!r}")


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_qber(text: str):
    return "auto" if text.strip() == "auto" else float(text)


def _get(section, key, cast, current):
    if section is None or key not in section:
        return current
    raw = section[key]
    try:
        return cast(raw)
    except ValueError:
        raise ParameterError(f"[{section.name}] {key}: invalid value {raw!r}") from None


def raw_config(path=None) -> configparser.ConfigParser:
    """The unparsed ``[section] key = value`` text of a config file; empty without a path."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    if path is not None:
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                # configparser spreads some messages over several lines
                raise ParameterError(f"{path}: {' '.join(str(exc).split())}") from None
    return parser


def load_config(path) -> ExperimentConfig:
    """Read a config file on top of the defaults."""
    return config_from_parser(raw_config(path))


def config_from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    base = ExperimentConfig()
    sec = {name: parser[name] if parser.has_section(name) else None
           for name in ("lora", "channel", "quantizer", "cascade", "experiment")}

    lora = LoRaParams(
        sf=_get(sec["lora"], "sf", int, base.lora.sf),
        bw=_get(sec["lora"], "bw", float, base.lora.bw),
        fs=_get(sec["lora"], "fs", float, base.lora.fs),
        preamble_len=_get(sec["lora"], "preamble_len", int, base.lora.preamble_len),
    )
    num_taps = _get(sec["channel"], "num_taps", int, base.channel.num_taps)
    decay_db = _get(sec["channel"], "decay_db", float, 3.0)
    channel = ChannelModel(
        num_taps=num_taps,
        power_delay_profile=exponential_profile(num_taps, decay_db),
        reciprocity_rho=_get(sec["channel"], "reciprocity_rho", float,
                             base.channel.reciprocity_rho),
        snr_db=_get(sec["channel"], "snr_db", float, base.channel.snr_db),
        eavesdropper_independent=_get(sec["channel"], "eavesdropper_independent", _parse_bool,
                                      base.channel.eavesdropper_independent),
    )
    quantizer = QuantizerConfig(
        alpha=_get(sec["quantizer"], "alpha", float, base.quantizer.alpha),
        block_size=_get(sec["quantizer"], "block_size", int, base.quantizer.block_size),
        shuffle_enabled=_get(sec["quantizer"], "shuffle", _parse_bool,
                             base.quantizer.shuffle_enabled),
        encoding=_get(sec["quantizer"], "encoding", str, base.quantizer.encoding),
        spread=_get(sec["quantizer"], "spread", str, base.quantizer.spread),
    )
    cascade = CascadeConfig(
        num_passes=_get(sec["cascade"], "num_passes", int, base.cascade.num_passes),
        qber_estimate=_get(sec["cascade"], "qber_estimate", _parse_qber,
                           base.cascade.qber_estimate),
    )

    exp = sec["experiment"]
    return ExperimentConfig(
        lora=lora,
        channel=channel,
        quantizer=quantizer,
        cascade=cascade,
        bin_policy=_get(exp, "bin_policy", str, base.bin_policy),
        qber_sample_fraction=_get(exp, "qber_sample_fraction", float,
                                  base.qber_sample_fraction),
        trials=_get(exp, "trials", int, base.trials),
        master_seed=_get(exp, "master_seed", int, base.master_seed),
        sweep_axis=_get(exp, "sweep_axis", str, base.sweep_axis),
        sweep_values=_get(exp, "sweep_values", _parse_floats, base.sweep_values),
        mode=_get(exp, "mode", str, base.mode),
        capture_a2g=_get(exp, "capture_a2g", str, base.capture_a2g),
        capture_g2a=_get(exp, "capture_g2a", str, base.capture_g2a),
        capture_eve=_get(exp, "capture_eve", str, base.capture_eve),
    )


def with_sweep_value(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """A copy of the config with one sweep axis pinned to a value."""
    if axis == "alpha":
        return replace(config, quantizer=replace(config.quantizer, alpha=value))
    if axis == "block_size":
        return replace(config, quantizer=replace(config.quantizer, block_size=int(value)))
    if axis == "snr":
        return replace(config, channel=replace(config.channel, snr_db=value))
    raise ParameterError(f"sweep_axis must be one of {SWEEP_AXES}")

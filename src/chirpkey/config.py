"""Experiment configuration: defaults, INI-style files, flag overrides.

The file format is flat ``key = value`` lines under bracketed section
headers ([lora], [channel], [quantizer], [cascade], [experiment]).  Every
field has a default matching the reference deployment (SF 7, bandwidth
250 kHz, sample rate 1 MHz, 8-symbol preamble), so an empty config runs
the standard setup.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .captures import CAPTURE_DTYPE
from .cfr import BIN_POLICIES
from .channel import ChannelModel
from .errors import ParameterError
from .quantizer import QuantizerConfig
from .reconciliation import CascadeConfig
from .waveform import LoRaParams

# sweep axis -> the [section] key its values pin
SWEEP_AXES = {
    "alpha": ("quantizer", "alpha"),
    "block_size": ("quantizer", "block_size"),
    "snr": ("channel", "snr_db"),
    "num_taps": ("channel", "num_taps"),
    "decay_db": ("channel", "decay_db"),
}
MODES = ("simulate", "captures")
# the lowest snr_db whose noise, at unit received power, stays 60 dB under
# the capture depth (the largest float32 an I/Q part holds): room for a
# strong realization and the Gaussian tails, so no sample overflows the cast
MIN_SNR_DB = 60.0 - 20.0 * math.log10(float(np.finfo(CAPTURE_DTYPE).max))


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
                raise ParameterError(f"sweep_axis must be one of {tuple(SWEEP_AXES)}")
            if not self.sweep_values:
                raise ParameterError("sweep_values must be non-empty when sweeping")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}")
        if not (0.0 < self.qber_sample_fraction <= 0.5):
            raise ParameterError("qber_sample_fraction must lie in (0, 0.5]")
        if self.master_seed < 0:
            raise ParameterError("master_seed must be >= 0")
        # the channel applies no tap at a lag past the frame, yet each would
        # take its share of the profile's power
        limit = self.lora.preamble_len * self.lora.samples_per_symbol
        if self.channel.num_taps > limit:
            raise ParameterError(
                f"[channel] num_taps must be <= preamble_len x samples_per_symbol = {limit}, "
                f"got {self.channel.num_taps}")
        if self.channel.snr_db < MIN_SNR_DB:
            raise ParameterError(
                f"snr_db must be >= {MIN_SNR_DB:.1f}, or its noise overflows the "
                f"{CAPTURE_DTYPE.name} capture depth, got {self.channel.snr_db}")


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ParameterError(f"cannot parse boolean from {text!r}") from None


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_qber(text: str):
    return "auto" if text.strip() == "auto" else float(text)


# every [section] key a config file may set -> how its text parses, in CLI
# flag order; each sets its section dataclass's field of that name, except
# [quantizer] shuffle, which sets shuffle_enabled
KEYS = {
    ("lora", "sf"): int,
    ("lora", "bw"): float,
    ("lora", "fs"): float,
    ("lora", "preamble_len"): int,
    ("channel", "num_taps"): int,
    ("channel", "decay_db"): float,
    ("channel", "reciprocity_rho"): float,
    ("channel", "snr_db"): float,
    ("channel", "eavesdropper_independent"): _parse_bool,
    ("quantizer", "alpha"): float,
    ("quantizer", "block_size"): int,
    ("quantizer", "shuffle"): _parse_bool,
    ("experiment", "bin_policy"): str,
    ("cascade", "qber_estimate"): _parse_qber,
    ("cascade", "num_passes"): int,
    ("experiment", "qber_sample_fraction"): float,
    ("experiment", "trials"): int,
    ("experiment", "master_seed"): int,
    ("experiment", "sweep_axis"): str,
    ("experiment", "sweep_values"): _parse_floats,
    ("experiment", "capture_a2g"): str,
    ("experiment", "capture_g2a"): str,
    ("experiment", "capture_eve"): str,
}


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
    """The defaults with every ``KEYS`` entry the parser holds written over them.

    A ``[section] key`` that is not in ``KEYS`` is an error, so a misspelt
    one cannot leave its default in force unnoticed.
    """
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if (section, key) not in KEYS:
                raise ParameterError(f"[{section}] {key}: not a config key")
    given = {section: {} for section, _ in KEYS}
    for (section, key), parse in KEYS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                given[section][key] = parse(raw)
            except ValueError:
                raise ParameterError(f"[{section}] {key}: invalid value {raw!r}") from None
    quantizer = given["quantizer"]
    if "shuffle" in quantizer:
        quantizer["shuffle_enabled"] = quantizer.pop("shuffle")
    return ExperimentConfig(
        lora=LoRaParams(**given["lora"]),
        channel=ChannelModel(**given["channel"]),
        quantizer=QuantizerConfig(**quantizer),
        cascade=CascadeConfig(**given["cascade"]),
        **given["experiment"],
    )


def with_sweep_value(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """A copy of the config with one sweep axis pinned to a value."""
    if axis not in SWEEP_AXES:
        raise ParameterError(f"sweep_axis must be one of {tuple(SWEEP_AXES)}")
    section, key = SWEEP_AXES[axis]
    try:
        pinned = KEYS[section, key](value)
    except (ValueError, OverflowError):  # int() of a NaN or an infinity
        pinned = None
    if pinned != value:
        raise ParameterError(f"sweep_axis {axis}: {value} is not a valid [{section}] {key}")
    return replace(config, **{section: replace(getattr(config, section), **{key: pinned})})

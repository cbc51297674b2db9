"""Physical-layer secret key generation over chirp-spread-spectrum links.

Pipeline: chirp-preamble channel probing -> least-squares CFR estimation ->
shuffle-preprocessed adaptive dual-threshold quantization -> cascade
reconciliation -> SHA-256 key confirmation, with a randomness suite and a
seeded experiment harness on top.
"""
from .captures import ingest_capture, write_capture
from .cfr import Cfr, estimate_from_frame
from .channel import ChannelModel, apply_channel, exponential_profile, sample_channel
from .config import ExperimentConfig, load_config
from .confirm import ConfirmationResult, KeyDigest, confirm, digest, serialize_key
from .errors import (
    CaptureFormatError,
    ParameterError,
    PreambleNotFoundError,
    ReconciliationError,
)
from .metrics import MetricsReport, max_run_lengths, skdr
from .nist import NistReport, run_suite
from .pipeline import (
    ExperimentRow,
    PipelineResult,
    export_probe_captures,
    rounds,
    run_captures,
    run_pipeline_once,
    run_sweep,
    run_trials,
)
from .quantizer import (
    BitKey,
    QuantizerConfig,
    block_thresholds,
    censoring_exchange,
    quantize,
    quantize_pipeline,
    shuffle,
)
from .reconciliation import (
    CascadeConfig,
    LocalParityOracle,
    ReconciliationOutcome,
    cascade,
    estimate_qber,
)
from .waveform import IqSamples, LoRaParams, detect_preamble, gen_preamble, gen_upchirp

__version__ = "0.1.0"

"""Raw IQ capture files: interleaved little-endian float32 I/Q pairs.

This is the complex-float layout SDR file sinks write, so recorded
receptions can replace live probing byte-for-byte.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import CaptureFormatError
from .waveform import IqSamples, LoRaParams

# the file layout, named once: little-endian complex64, one float32 I/Q pair per sample
CAPTURE_DTYPE = np.dtype("<c8")


def ingest_capture(path, params: LoRaParams) -> IqSamples:
    """Parse a capture file into complex samples at the configured rate."""
    data = np.fromfile(path, dtype=np.uint8)
    if len(data) % 8 != 0:
        raise CaptureFormatError(
            f"{os.fspath(path)}: size {len(data)} is not a multiple of 8 octets"
        )
    if len(data) == 0:
        raise CaptureFormatError(f"{os.fspath(path)}: empty capture")
    floats = data.view("<f4")
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        raise CaptureFormatError(
            f"{os.fspath(path)}: non-finite float at byte offset {int(bad[0]) * 4}"
        )
    return IqSamples(data.view(CAPTURE_DTYPE), params.fs)


def write_capture(path, iq: IqSamples) -> None:
    """Serialize samples as interleaved float32 pairs (the ingest inverse).

    Values are cast to ``CAPTURE_DTYPE``, whose memory layout is that pair;
    a round trip is bit-identical once the samples are already at capture
    depth.
    """
    iq.samples.astype(CAPTURE_DTYPE).tofile(path)

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
    """Parse a capture file into complex samples at the configured rate.

    The samples stay at capture depth: a complex64 view of the file's bytes.
    """
    data = np.fromfile(path, dtype=np.uint8)
    if len(data) % 8 != 0:
        raise CaptureFormatError(
            f"{os.fspath(path)}: size {len(data)} is not a multiple of 8 octets"
        )
    if len(data) == 0:
        raise CaptureFormatError(f"{os.fspath(path)}: empty capture")
    _check_finite(path, data.view("<f4"))
    return IqSamples(data.view(CAPTURE_DTYPE), params.fs)


def write_capture(path, iq: IqSamples) -> None:
    """Serialize samples as interleaved float32 pairs (the ingest inverse).

    Values are cast to ``CAPTURE_DTYPE``, whose memory layout is that pair;
    samples already at capture depth are written as they are, without a
    copy, and read back bit-identical.  A value beyond float32 range raises
    ``CaptureFormatError`` before the file is opened.  An existing file is
    rewritten in place and then cut to the new length: it keeps its inode,
    so a link still writes its target, and no truncation to zero frees its
    blocks first.
    """
    try:
        with np.errstate(over="raise"):
            data = iq.samples.astype(CAPTURE_DTYPE, copy=False)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            data = iq.samples.astype(CAPTURE_DTYPE)
        _check_finite(path, data.view("<f4"))  # names the first value that overflowed
    try:
        f = open(path, "r+b")
    except FileNotFoundError:
        f = open(path, "wb")
    with f:
        f.write(data)
        f.truncate()


def _check_finite(path, floats: np.ndarray) -> None:
    """Reject a capture at the byte offset of its first non-finite float32.

    A good capture costs one scan; the offset is located only on failure.
    """
    finite = np.isfinite(floats)
    if not finite.all():
        raise CaptureFormatError(
            f"{os.fspath(path)}: non-finite float at byte offset {int(finite.argmin()) * 4}"
        )

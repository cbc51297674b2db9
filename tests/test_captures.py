import struct

import numpy as np
import pytest

from chirpkey import (
    CaptureFormatError,
    IqSamples,
    gen_preamble,
    ingest_capture,
    write_capture,
)


def test_format_definition(tmp_path, default_params):
    path = tmp_path / "two_samples.cf32"
    path.write_bytes(struct.pack("<4f", 1.0, 0.0, 0.0, -1.0))
    iq = ingest_capture(path, default_params)
    np.testing.assert_array_equal(iq.samples, np.array([1 + 0j, 0 - 1j]))
    assert iq.fs == default_params.fs


def test_roundtrip_is_bit_identical(tmp_path, default_params):
    pre = gen_preamble(default_params)
    path = tmp_path / "pre.cf32"
    write_capture(path, pre)
    back = ingest_capture(path, default_params)
    # once at capture depth the cycle is exact
    np.testing.assert_array_equal(
        back.samples, pre.samples.astype(np.complex64).astype(np.complex128)
    )
    path2 = tmp_path / "pre2.cf32"
    write_capture(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_file_rejected(tmp_path, default_params):
    path = tmp_path / "truncated.cf32"
    path.write_bytes(struct.pack("<3f", 1.0, 2.0, 3.0))
    with pytest.raises(CaptureFormatError):
        ingest_capture(path, default_params)


def test_non_finite_float_rejected_with_offset(tmp_path, default_params):
    path = tmp_path / "nan.cf32"
    path.write_bytes(struct.pack("<4f", 1.0, float("nan"), 0.5, 0.5))
    with pytest.raises(CaptureFormatError, match="offset 4"):
        ingest_capture(path, default_params)


def test_empty_file_rejected(tmp_path, default_params):
    path = tmp_path / "empty.cf32"
    path.write_bytes(b"")
    with pytest.raises(CaptureFormatError):
        ingest_capture(path, default_params)


def test_writer_interleaves_little_endian(tmp_path, default_params):
    iq = IqSamples(np.array([0.25 - 0.5j]), default_params.fs)
    path = tmp_path / "one.cf32"
    write_capture(path, iq)
    assert path.read_bytes() == struct.pack("<2f", 0.25, -0.5)


def test_writer_bytes_equal_interleaved_float32_pairs(tmp_path, default_params):
    # a frame not at capture depth, with signed zeros, against the explicit
    # interleaving of float32 real and imaginary parts
    rng = np.random.default_rng(12)
    samples = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    samples[:3] = [complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0)]
    path = tmp_path / "frame.cf32"
    write_capture(path, IqSamples(samples, default_params.fs))
    as32 = samples.astype(np.complex64)
    interleaved = np.empty(2 * len(as32), dtype="<f4")
    interleaved[0::2] = as32.real
    interleaved[1::2] = as32.imag
    assert path.read_bytes() == interleaved.tobytes()


def test_ingest_keeps_signed_zeros(tmp_path, default_params):
    # replay must yield exactly the complex64 -> complex128 cast that
    # simulated frames take, sign bits of zero parts included
    samples = np.array([complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0)])
    path = tmp_path / "zeros.cf32"
    write_capture(path, IqSamples(samples, default_params.fs))
    back = ingest_capture(path, default_params)
    want = samples.astype("<c8").astype(np.complex128)
    assert back.samples.tobytes() == want.tobytes()

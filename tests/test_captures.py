import os
import stat
import struct
import warnings

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
    write_capture(path, IqSamples(pre, default_params.fs))
    back = ingest_capture(path, default_params)
    # once at capture depth the cycle is exact
    np.testing.assert_array_equal(
        back.samples, pre.astype(np.complex64).astype(np.complex128)
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
    # replay must yield exactly the capture-depth cast that simulated
    # frames take, sign bits of zero parts included
    samples = np.array([complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0)])
    path = tmp_path / "zeros.cf32"
    write_capture(path, IqSamples(samples, default_params.fs))
    back = ingest_capture(path, default_params)
    want = samples.astype("<c8")
    assert back.samples.tobytes() == want.tobytes()


def _frame(n, seed, fs):
    rng = np.random.default_rng(seed)
    return IqSamples(rng.standard_normal(n) + 1j * rng.standard_normal(n), fs)


def _capture_bytes(iq):
    return iq.samples.astype("<c8").tobytes()


@pytest.mark.parametrize("first, second", [(4096, 1000), (1000, 4096)])
def test_rewrite_reads_back_exactly(tmp_path, default_params, first, second):
    # a shorter capture over a longer one must not keep the old tail, and a
    # longer one over a shorter one must not stop at the old length
    path = tmp_path / "cell.cf32"
    write_capture(path, _frame(first, 1, default_params.fs))
    new = _frame(second, 2, default_params.fs)
    write_capture(path, new)
    assert os.path.getsize(path) == 8 * second
    assert path.read_bytes() == _capture_bytes(new)
    back = ingest_capture(path, default_params)
    np.testing.assert_array_equal(back.samples, new.samples.astype(np.complex64))


def test_rewrite_through_symlink_writes_its_target(tmp_path, default_params):
    target = tmp_path / "target.cf32"
    link = tmp_path / "link.cf32"
    write_capture(target, _frame(2048, 3, default_params.fs))
    link.symlink_to(target)
    new = _frame(512, 4, default_params.fs)
    write_capture(link, new)
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == _capture_bytes(new)


def test_new_capture_gets_the_mode_of_a_plain_create(tmp_path, default_params):
    plain = tmp_path / "plain.cf32"
    with open(plain, "wb"):
        pass
    path = tmp_path / "new.cf32"
    write_capture(path, _frame(16, 5, default_params.fs))
    assert stat.S_IMODE(os.stat(path).st_mode) == stat.S_IMODE(os.stat(plain).st_mode)


def test_writer_rejects_values_beyond_float32_and_keeps_the_old_file(
    tmp_path, default_params
):
    # the cast would write inf, which ingest_capture rejects; nothing is
    # written, and the error reads as ingest's does
    path = tmp_path / "kept.cf32"
    write_capture(path, _frame(64, 6, default_params.fs))
    before = path.read_bytes()
    iq = IqSamples(np.array([1 + 1j, 2 + 2j, 1e39 + 0j, 1 + 1e39j]), default_params.fs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CaptureFormatError, match=r"kept\.cf32: non-finite float at byte offset 16$"):
            write_capture(path, iq)
    assert path.read_bytes() == before
    missing = tmp_path / "missing.cf32"
    with pytest.raises(CaptureFormatError, match="offset 4"):
        write_capture(missing, IqSamples(np.array([1 - 1e39j]), default_params.fs))
    assert not missing.exists()

import hashlib

import numpy as np
from cryptography.hazmat.primitives import hashes
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpkey import BitKey, confirm, digest, serialize_key


def _oracle_sha256(message: bytes) -> bytes:
    # independent backend (OpenSSL via cryptography), not hashlib
    h = hashes.Hash(hashes.SHA256())
    h.update(message)
    return h.finalize()


def test_serialization_layout():
    key = BitKey(np.array([0, 1, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
    blob = serialize_key(key)
    assert blob == b"\x00" * 7 + b"\x08" + b"\x41"


def test_serialization_pads_msb_first():
    key = BitKey(np.array([1, 1, 1], dtype=np.uint8))
    blob = serialize_key(key)
    assert blob[:8] == (3).to_bytes(8, "big")
    assert blob[8] == 0b1110_0000


def test_zero_length_key_edge():
    empty = BitKey(np.array([], dtype=np.uint8))
    assert serialize_key(empty) == b"\x00" * 8
    assert digest(empty).digest == _oracle_sha256(b"\x00" * 8)


def test_digest_matches_independent_oracle_on_worked_example():
    key = BitKey(np.array([0, 1, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
    assert digest(key).digest == _oracle_sha256(serialize_key(key))
    assert digest(key).hex == (
        "7a6152bd5127b53d7ab3037f477dbb7f75067491904feca60c8bc8cc71385791"
    )


def test_digest_deterministic():
    key = BitKey(np.random.default_rng(0).integers(0, 2, 300).astype(np.uint8))
    assert digest(key).digest == digest(key).digest


def test_digest_matches_oracle_on_random_keys():
    rng = np.random.default_rng(314)
    for _ in range(100):
        key = BitKey(rng.integers(0, 2, int(rng.integers(1, 600))).astype(np.uint8))
        assert digest(key).digest == _oracle_sha256(serialize_key(key))


def test_confirm_matched():
    rng = np.random.default_rng(1)
    for _ in range(100):
        bits = rng.integers(0, 2, 256).astype(np.uint8)
        result = confirm(BitKey(bits), BitKey(bits.copy()))
        assert result.matched
        expected = _oracle_sha256(serialize_key(BitKey(bits)))
        assert result.digest_a.digest == result.digest_g.digest == expected


def test_confirm_detects_single_bit_flips():
    rng = np.random.default_rng(2)
    for _ in range(100):
        bits = rng.integers(0, 2, 373).astype(np.uint8)
        flipped = bits.copy()
        flipped[rng.integers(0, len(bits))] ^= 1
        result = confirm(BitKey(bits), BitKey(flipped))
        assert not result.matched


def test_confirm_symmetric():
    a = BitKey(np.array([1, 0, 1], dtype=np.uint8))
    g = BitKey(np.array([1, 1, 1], dtype=np.uint8))
    assert confirm(a, g).matched == confirm(g, a).matched == False  # noqa: E712


def test_digest_hex_rendering():
    key = BitKey(np.array([1], dtype=np.uint8))
    text = digest(key).hex
    assert len(text) == 64 and text == text.lower()
    int(text, 16)  # parses as hexadecimal


bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=64)


@given(bit_lists, bit_lists)
@settings(max_examples=200)
def test_serialization_injective(bits_a, bits_g):
    key_a = BitKey(np.array(bits_a, dtype=np.uint8))
    key_g = BitKey(np.array(bits_g, dtype=np.uint8))
    if bits_a != bits_g:
        assert serialize_key(key_a) != serialize_key(key_g)
    else:
        assert serialize_key(key_a) == serialize_key(key_g)


def test_hashlib_agrees_with_cryptography_backend():
    # sanity: the two independent backends agree on a reference vector
    assert hashlib.sha256(b"abc").digest() == _oracle_sha256(b"abc")

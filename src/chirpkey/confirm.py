"""Key confirmation by SHA-256 digest exchange.

A key is serialized canonically (64-bit big-endian bit-length header, then
bits packed MSB-first into zero-padded octets) and hashed.  If the two
digests match, the keys were equal with overwhelming probability.  That
is all confirmation shows.  A confirmed round yields its reconciled key,
and the parity bits reconciliation counted as leaked are public; nothing
here sizes the key to what stays secret or derives a key from it.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .quantizer import BitKey


@dataclass(frozen=True)
class KeyDigest:
    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ParameterError("digest must be exactly 256 bits")

    @property
    def hex(self) -> str:
        return self.digest.hex()


@dataclass(frozen=True)
class ConfirmationResult:
    matched: bool
    digest_a: KeyDigest
    digest_g: KeyDigest


def serialize_key(key: BitKey) -> bytes:
    """Canonical octet serialization, injective on (length, bits)."""
    header = struct.pack(">Q", len(key.bits))
    if len(key.bits) == 0:
        return header
    return header + np.packbits(key.bits).tobytes()


def digest(key: BitKey) -> KeyDigest:
    """SHA-256 over the canonical serialization."""
    return KeyDigest(hashlib.sha256(serialize_key(key)).digest())


def confirm(key_a: BitKey, key_g: BitKey) -> ConfirmationResult:
    """Exchange the two keys' digests and report whether they match."""
    da = digest(key_a)
    dg = digest(key_g)
    return ConfirmationResult(da.digest == dg.digest, da, dg)

"""Key confirmation by SHA-256 digest exchange.

A key is serialized canonically (64-bit big-endian bit-length header, then
bits packed MSB-first into zero-padded octets) and hashed.  If the two
digests match, the keys were equal with overwhelming probability.  The
digests are public, so the 256-bit final key is a separate hash of the
reconciled key under a fixed domain label, equal to no exchanged message.
It is not privacy-amplified: nothing removes what the disclosed parity
bits tell a listener.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .quantizer import BitKey


# prefixed to the serialized key before hashing it into the final key
FINAL_KEY_LABEL = b"chirpkey final key\x00"


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
    final_key: BitKey | None


def serialize_key(key: BitKey) -> bytes:
    """Canonical octet serialization, injective on (length, bits)."""
    header = struct.pack(">Q", len(key.bits))
    if len(key.bits) == 0:
        return header
    return header + np.packbits(key.bits).tobytes()


def digest(key: BitKey) -> KeyDigest:
    """SHA-256 over the canonical serialization."""
    return KeyDigest(hashlib.sha256(serialize_key(key)).digest())


def derive_final_key(key: BitKey) -> BitKey:
    """SHA-256 over ``FINAL_KEY_LABEL`` then the canonical serialization."""
    derived = hashlib.sha256(FINAL_KEY_LABEL + serialize_key(key)).digest()
    return BitKey(np.unpackbits(np.frombuffer(derived, dtype=np.uint8)), "final")


def confirm(key_a: BitKey, key_g: BitKey) -> ConfirmationResult:
    """Exchange digests; on a match derive the final key from A's key."""
    da = digest(key_a)
    dg = digest(key_g)
    matched = da.digest == dg.digest
    return ConfirmationResult(matched, da, dg, derive_final_key(key_a) if matched else None)

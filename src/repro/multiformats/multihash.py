"""Multihash: self-describing hash digests.

A multihash is ``varint(function code) || varint(digest length) ||
digest``. Section 2.1 of the paper: IPFS defaults to sha2-256 with a
32-byte digest, and uses 256-bit keys in the DHT "to anticipate advances
in deliberate hash collisions" against SHA-1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import DecodeError
from repro.utils.varint import encode_varint, read_varint

#: Registered multihash function codes.
SHA2_256 = 0x12
SHA2_512 = 0x13
SHA1 = 0x11
IDENTITY = 0x00

_HASHERS = {
    SHA2_256: ("sha2-256", lambda data: hashlib.sha256(data).digest()),
    SHA2_512: ("sha2-512", lambda data: hashlib.sha512(data).digest()),
    SHA1: ("sha1", lambda data: hashlib.sha1(data).digest()),
    IDENTITY: ("identity", lambda data: bytes(data)),
}

_NAME_TO_CODE = {name: code for code, (name, _) in _HASHERS.items()}


@dataclass(frozen=True, slots=True)
class Multihash:
    """A decoded multihash: hash function code plus raw digest.

    Slotted: one sits under every named PeerId and CID. Equality and
    the hash run over the field tuple ``(code, digest)``; ``PeerId``'s
    hash, and with it every seeded set order, is built on that value.
    """

    code: int
    digest: bytes

    def __post_init__(self) -> None:
        if self.code not in _HASHERS:
            raise DecodeError(f"unknown multihash function code: {self.code:#x}")

    @property
    def function_name(self) -> str:
        """Human-readable hash function name, e.g. ``sha2-256``."""
        return _HASHERS[self.code][0]

    @property
    def length(self) -> int:
        """Digest length in bytes (32 for the sha2-256 default)."""
        return len(self.digest)

    def encode(self) -> bytes:
        """Serialize to the canonical multihash byte form."""
        return encode_varint(self.code) + encode_varint(len(self.digest)) + self.digest

    @classmethod
    def decode(cls, data: bytes) -> "Multihash":
        """Parse a buffer containing exactly one multihash."""
        mh, end = cls.read(data, 0)
        if end != len(data):
            raise DecodeError("trailing bytes after multihash")
        return mh

    @classmethod
    def read(cls, data: bytes, offset: int) -> tuple["Multihash", int]:
        """Parse a multihash starting at ``offset``; returns (mh, next)."""
        code, offset = read_varint(data, offset)
        length, offset = read_varint(data, offset)
        digest = data[offset : offset + length]
        if len(digest) != length:
            raise DecodeError("truncated multihash digest")
        return cls(code, digest), offset + length

    def verify(self, data: bytes) -> bool:
        """Check that ``data`` hashes to this digest (self-certification).

        This is the property Section 2.1 calls "immutability and
        self-certification": any peer can validate received content
        against the CID without trusting the sender.
        """
        _, hasher = _HASHERS[self.code]
        return hasher(data) == self.digest


def multihash_digest(data: bytes, function: str = "sha2-256") -> Multihash:
    """Hash ``data`` and wrap the digest as a :class:`Multihash`.

    >>> multihash_digest(b'hello').function_name
    'sha2-256'
    >>> multihash_digest(b'hello').length
    32
    """
    try:
        code = _NAME_TO_CODE[function]
    except KeyError:
        raise DecodeError(f"unknown multihash function: {function}") from None
    _, hasher = _HASHERS[code]
    return Multihash(code, hasher(data))

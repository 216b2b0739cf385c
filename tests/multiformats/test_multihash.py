"""Tests for multihash encoding and self-certification."""

import copy
import hashlib
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.multiformats.cid import make_cid
from repro.multiformats.multihash import (
    SHA2_256,
    Multihash,
    multihash_digest,
)
from repro.multiformats.peerid import PeerId


class TestDigest:
    def test_default_is_sha2_256(self):
        mh = multihash_digest(b"hello")
        assert mh.function_name == "sha2-256"
        assert mh.length == 32
        assert mh.digest == hashlib.sha256(b"hello").digest()

    def test_sha2_512(self):
        mh = multihash_digest(b"hello", "sha2-512")
        assert mh.length == 64

    def test_identity(self):
        mh = multihash_digest(b"tiny", "identity")
        assert mh.digest == b"tiny"

    def test_unknown_function_rejected(self):
        with pytest.raises(DecodeError):
            multihash_digest(b"x", "blake9")


class TestEncoding:
    def test_wire_format_prefix(self):
        # sha2-256 code 0x12, length 0x20.
        encoded = multihash_digest(b"hello").encode()
        assert encoded[0] == 0x12
        assert encoded[1] == 0x20
        assert len(encoded) == 34

    def test_roundtrip(self):
        mh = multihash_digest(b"payload")
        assert Multihash.decode(mh.encode()) == mh

    def test_truncated_digest_rejected(self):
        encoded = multihash_digest(b"x").encode()
        with pytest.raises(DecodeError):
            Multihash.decode(encoded[:-1])

    def test_trailing_bytes_rejected(self):
        encoded = multihash_digest(b"x").encode()
        with pytest.raises(DecodeError):
            Multihash.decode(encoded + b"\x00")

    def test_unknown_code_rejected(self):
        with pytest.raises(DecodeError):
            Multihash(0x99, b"\x00" * 32)

    def test_read_from_offset(self):
        mh = multihash_digest(b"x")
        data = b"\xff\xff" + mh.encode() + b"tail"
        parsed, end = Multihash.read(data, 2)
        assert parsed == mh
        assert data[end:] == b"tail"


class TestSelfCertification:
    def test_verify_accepts_original(self):
        assert multihash_digest(b"content").verify(b"content")

    def test_verify_rejects_tampered(self):
        assert not multihash_digest(b"content").verify(b"Content")

    @given(st.binary(max_size=256))
    def test_verify_property(self, data):
        mh = multihash_digest(data)
        assert mh.verify(data)
        assert not mh.verify(data + b"\x00")


def test_constants():
    assert SHA2_256 == 0x12


class TestSlots:
    """A Multihash sits under every named PeerId and CID, so it carries
    no ``__dict__``; its hash, and with it every set order built on
    PeerIds, is that of the field tuple."""

    def test_no_instance_dict(self):
        mh = multihash_digest(b"slots")
        assert not hasattr(mh, "__dict__")
        assert Multihash.__slots__ == ("code", "digest")

    def test_field_writes_raise_frozen_instance_error(self):
        mh = multihash_digest(b"slots")
        with pytest.raises(FrozenInstanceError):
            mh.code = SHA2_256
        with pytest.raises(FrozenInstanceError):
            del mh.digest
        assert mh == multihash_digest(b"slots")

    def test_non_field_writes_raise(self):
        # FrozenInstanceError is an AttributeError; CPython 3.11 raises
        # TypeError from the generated __setattr__'s super() call. Which
        # one is the Python's business: only that the write fails is
        # pinned.
        mh = multihash_digest(b"slots")
        with pytest.raises((AttributeError, TypeError)):
            mh.extra = 1
        assert not hasattr(mh, "extra")

    def test_hash_is_the_field_tuple_hash(self):
        mh = multihash_digest(b"slots")
        assert hash(mh) == hash((mh.code, mh.digest))
        assert hash(PeerId(mh)) == hash((mh,))

    @pytest.mark.parametrize("clone", [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trips_equal_and_hash_equal(self, clone):
        mh = multihash_digest(b"slots")
        for obj in (mh, PeerId(mh), make_cid(b"slots")):
            copied = clone(obj)
            assert copied == obj
            assert hash(copied) == hash(obj)

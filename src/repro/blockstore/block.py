"""The Block primitive: a CID-addressed unit of storage.

Raw leaf chunks and encoded DAG nodes both travel as blocks — this is
the unit Bitswap exchanges and blockstores hold. Lives in the
blockstore package (not merkledag) so storage has no dependency on DAG
structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.multiformats.cid import Cid, make_cid


@dataclass(frozen=True)
class Block:
    """An immutable (CID, bytes) pair."""

    cid: Cid
    data: bytes

    @classmethod
    def from_data(cls, data: bytes, codec: int | None = None) -> "Block":
        """Build a block, deriving the CID from the bytes."""
        if codec is None:
            cid = make_cid(data)
        else:
            cid = make_cid(data, codec=codec)
        block = cls(cid, data)
        block.__dict__["_verified"] = True  # the CID was just derived from `data`
        return block

    def verify(self) -> bool:
        """Self-certification: the data must hash to the CID.

        Hashed at most once per block object. The answer is kept in the
        instance dict, not in a field, so equality, ``repr`` and
        ``dataclasses.replace`` never see it: bytes that arrive as a new
        object (from disk, from a peer that built its own) hash again.
        """
        memo = self.__dict__
        verified = memo.get("_verified")
        if verified is None:
            verified = memo["_verified"] = self.cid.verify(self.data)
        return verified

    @property
    def size(self) -> int:
        return len(self.data)

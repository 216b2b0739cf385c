"""Tests for the blockstore implementations."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.filestore import FileBlockstore
from repro.blockstore.lru import LruBlockstore
from repro.blockstore.memory import MemoryBlockstore
from repro.blockstore.pinning import PinningBlockstore
from repro.errors import BlockNotFoundError, DagError
from repro.merkledag.builder import DagBuilder
from repro.blockstore.block import Block
from repro.multiformats.cid import make_cid
from tests.helpers import counted_digests


class TestVerifyMemo:
    """A block object is hashed at most once; a new object hashes again."""

    def test_forged_block_fails_twice_on_one_digest(self):
        cid = make_cid(b"real")
        with counted_digests() as sizes:
            forged = Block(cid, b"forged")
            assert forged.verify() is False
            assert forged.verify() is False
        assert sizes == [len(b"forged")]

    def test_from_data_block_verifies_without_a_second_digest(self):
        with counted_digests() as sizes:
            block = Block.from_data(b"payload")
            derived = len(sizes)
            assert block.verify() is True
            MemoryBlockstore().put(block)
        assert derived == len(sizes) == 1

    def test_foreign_bytes_are_hashed_on_first_use(self):
        cid = make_cid(b"payload")
        with counted_digests() as sizes:
            rebuilt = Block(cid, b"payload")
            assert rebuilt.verify() and rebuilt.verify()
        assert sizes == [len(b"payload")]

    def test_replace_is_hashed_afresh_and_fails(self):
        block = Block.from_data(b"payload")
        with counted_digests() as sizes:
            swapped = dataclasses.replace(block, data=b"other")
            assert swapped.verify() is False
        assert sizes == [len(b"other")]
        assert block.verify()

    def test_memo_is_outside_equality_hash_and_repr(self):
        built, derived = Block(make_cid(b"payload"), b"payload"), Block.from_data(b"payload")
        before = repr(built)
        assert built.verify()
        assert built == derived
        assert hash(built) == hash(derived)
        assert repr(built) == before == repr(derived)
        assert [f.name for f in dataclasses.fields(Block)] == ["cid", "data"]

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))]
    )
    def test_copies_still_verify(self, clone):
        for block in (Block.from_data(b"payload"), Block(make_cid(b"payload"), b"payload")):
            twin = clone(block)
            assert twin == block
            assert twin.verify()

    def test_filestore_rehashes_what_it_reads_back(self, tmp_path):
        store = FileBlockstore(tmp_path / "blocks")
        block = Block.from_data(b"will be corrupted later")
        store.put(block)
        assert store.get(block.cid) == block  # a successful read first
        store._path_for(block.cid).write_bytes(b"bitrot")
        with pytest.raises(DagError):
            store.get(block.cid)
        assert block.verify()  # the caller's own object is untouched


class TestMemoryBlockstore:
    def test_put_get(self):
        store = MemoryBlockstore()
        block = Block.from_data(b"data")
        store.put(block)
        assert store.get(block.cid) == block

    def test_missing_raises(self):
        with pytest.raises(BlockNotFoundError):
            MemoryBlockstore().get(make_cid(b"missing"))

    def test_has(self):
        store = MemoryBlockstore()
        block = Block.from_data(b"data")
        assert not store.has(block.cid)
        store.put(block)
        assert store.has(block.cid)

    def test_put_idempotent(self):
        store = MemoryBlockstore()
        block = Block.from_data(b"data")
        store.put(block)
        store.put(block)
        assert len(store) == 1
        assert store.size_bytes() == 4

    def test_delete(self):
        store = MemoryBlockstore()
        block = Block.from_data(b"data")
        store.put(block)
        store.delete(block.cid)
        assert not store.has(block.cid)
        assert store.size_bytes() == 0
        store.delete(block.cid)  # no error on absent

    def test_rejects_unverifiable_block(self):
        store = MemoryBlockstore()
        with pytest.raises(DagError):
            store.put(Block(make_cid(b"real"), b"forged"))

    def test_cids_iteration(self):
        store = MemoryBlockstore()
        blocks = [Block.from_data(bytes([i])) for i in range(5)]
        for block in blocks:
            store.put(block)
        assert set(store.cids()) == {b.cid for b in blocks}

    def test_size_bytes_tracks(self):
        store = MemoryBlockstore()
        store.put(Block.from_data(b"12345"))
        store.put(Block.from_data(b"123"))
        assert store.size_bytes() == 8


class TestLruBlockstore:
    def test_eviction_at_capacity(self):
        store = LruBlockstore(capacity_bytes=10)
        a, b, c = (Block.from_data(bytes([i]) * 5) for i in range(3))
        store.put(a)
        store.put(b)
        store.put(c)  # evicts a (least recently used)
        assert not store.has(a.cid)
        assert store.has(b.cid)
        assert store.has(c.cid)
        assert store.evictions == 1

    def test_get_refreshes_recency(self):
        store = LruBlockstore(capacity_bytes=10)
        a, b, c = (Block.from_data(bytes([i]) * 5) for i in range(3))
        store.put(a)
        store.put(b)
        store.get(a.cid)  # a becomes most-recent
        store.put(c)  # evicts b
        assert store.has(a.cid)
        assert not store.has(b.cid)

    def test_oversized_block_refused_silently(self):
        store = LruBlockstore(capacity_bytes=4)
        big = Block.from_data(b"12345")
        store.put(big)
        assert not store.has(big.cid)

    def test_duplicate_put_does_not_double_count(self):
        store = LruBlockstore(capacity_bytes=10)
        block = Block.from_data(b"12345")
        store.put(block)
        store.put(block)
        assert store.size_bytes() == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruBlockstore(capacity_bytes=0)

    def test_never_exceeds_capacity_property(self):
        store = LruBlockstore(capacity_bytes=64)
        for i in range(100):
            store.put(Block.from_data(bytes([i % 256]) * (1 + i % 16)))
            assert store.size_bytes() <= 64

    def test_delete(self):
        store = LruBlockstore(capacity_bytes=100)
        block = Block.from_data(b"x")
        store.put(block)
        store.delete(block.cid)
        assert len(store) == 0


class TestPinningAndGc:
    def test_unpinned_blocks_collected(self):
        store = PinningBlockstore()
        block = Block.from_data(b"transient")
        store.put(block)
        removed = store.collect_garbage()
        assert removed == 1
        assert not store.has(block.cid)

    def test_direct_pin_survives(self):
        store = PinningBlockstore()
        block = Block.from_data(b"kept")
        store.put(block)
        store.pin(block.cid, recursive=False)
        store.collect_garbage()
        assert store.has(block.cid)

    def test_recursive_pin_protects_whole_dag(self):
        store = PinningBlockstore()
        result = DagBuilder(store, chunk_size=8).add_bytes(b"0123456789" * 10)
        other = Block.from_data(b"unrelated")
        store.put(other)
        store.pin(result.root)
        store.collect_garbage()
        from repro.merkledag.reader import DagReader

        assert DagReader(store).cat(result.root) == b"0123456789" * 10
        assert not store.has(other.cid)

    def test_direct_pin_does_not_protect_children(self):
        store = PinningBlockstore()
        result = DagBuilder(store, chunk_size=8).add_bytes(b"0123456789" * 10)
        store.pin(result.root, recursive=False)
        store.collect_garbage()
        assert store.has(result.root)
        from repro.merkledag.reader import DagReader

        assert not DagReader(store).has_complete_dag(result.root)

    def test_unpin_allows_collection(self):
        store = PinningBlockstore()
        block = Block.from_data(b"kept")
        store.put(block)
        store.pin(block.cid)
        store.unpin(block.cid)
        store.collect_garbage()
        assert not store.has(block.cid)

    def test_delete_pinned_raises(self):
        store = PinningBlockstore()
        block = Block.from_data(b"x")
        store.put(block)
        store.pin(block.cid)
        with pytest.raises(ValueError):
            store.delete(block.cid)

    def test_recursive_pin_upgrades_direct(self):
        store = PinningBlockstore()
        cid = make_cid(b"x")
        store.pin(cid, recursive=False)
        store.pin(cid, recursive=True)
        assert store.pins() == {cid}
        assert store.is_pinned(cid)

    def test_gc_with_missing_children_is_safe(self):
        store = PinningBlockstore()
        result = DagBuilder(store, chunk_size=8).add_bytes(b"abcdefgh" * 20)
        # Drop a leaf, then pin and GC: should not raise.
        from repro.merkledag.reader import DagReader

        leaf = DagReader(store).all_cids(result.root)[-1]
        store._backing.delete(leaf)
        store.pin(result.root)
        store.collect_garbage()
        assert store.has(result.root)


@settings(max_examples=20)
@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=20, unique=True))
def test_memory_store_roundtrip_property(payloads):
    store = MemoryBlockstore()
    blocks = [Block.from_data(p) for p in payloads]
    for block in blocks:
        store.put(block)
    for block in blocks:
        assert store.get(block.cid).data == block.data
    assert len(store) == len({b.cid for b in blocks})

"""The Kademlia routing table: 256 k-buckets of 20 peers each.

Bucket ``i`` holds peers whose DHT key shares exactly ``i`` leading
bits with ours. Buckets follow least-recently-seen discipline: a full
bucket rejects newcomers; refreshing an existing entry moves it to the
tail (classic Kademlia favours long-lived peers, which the churn
analysis of Section 5.3 justifies: old peers are likelier to stay).

Only *DHT servers* are ever inserted (Section 2.3): the caller filters
out clients, which is the v0.5 change the paper credits with a major
performance boost.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.dht.keyspace import KEY_BITS, key_int_for_peer, key_for_peer
from repro.errors import SimulationError
from repro.multiformats.peerid import PeerId

#: Bucket capacity and record replication factor (Section 2.3).
K_BUCKET_SIZE = 20


class RoutingTable:
    """256 buckets of up to k = 20 peers, keyed by common prefix length.

    Peers accumulate a failure score via :meth:`record_failure`; after
    ``failure_threshold`` consecutive RPC failures they are evicted (as
    go-ipfs does). The default threshold of 1 reproduces the paper's
    go-ipfs v0.10 behaviour — evict on the first failed query — while
    chaos experiments raise it so transient injected faults do not
    strip the table bare.
    """

    def __init__(
        self,
        own_id: PeerId,
        bucket_size: int = K_BUCKET_SIZE,
        failure_threshold: int = 1,
    ) -> None:
        self.own_id = own_id
        self.own_key = key_for_peer(own_id)
        self.own_key_int = key_int_for_peer(own_id)
        self.bucket_size = bucket_size
        self.failure_threshold = max(1, failure_threshold)
        # Bucket dicts map peer -> cached DHT key int; insertion order
        # doubles as the least-recently-seen order (a refresh re-inserts
        # at the tail). Buckets are allocated *sparsely*, keyed by
        # index: a table only ever populates O(log n) of its 256
        # buckets, and the 256 upfront empty dicts (~16 KB/table) were
        # the dominant per-peer memory cost at 100k+ peers.
        self._buckets: dict[int, dict[PeerId, int]] = {}
        self._size = 0
        self._failures: dict[PeerId, int] = {}
        #: peers evicted by the failure score (degradation telemetry)
        self.evictions = 0
        #: optional circuit-breaker registry (anything with
        #: ``is_open(peer_id)``); when set, :meth:`closest` filters out
        #: peers whose breaker is currently open. Entries are *not*
        #: evicted — an open breaker is a temporary verdict, eviction
        #: is permanent.
        self.breakers = None

    def __len__(self) -> int:
        return self._size

    def __contains__(self, peer_id: PeerId) -> bool:
        if peer_id == self.own_id:
            return False
        bucket = self._buckets.get(self._bucket_for(peer_id))
        return bucket is not None and peer_id in bucket

    def _bucket_for(self, peer_id: PeerId) -> int:
        # Inline common_prefix_length on the cached integer keys: the
        # XOR plus bit_length is the whole computation, with no byte
        # conversions or hashing (both are cached on the PeerId).
        distance = self.own_key_int ^ key_int_for_peer(peer_id)
        if distance == 0:
            return KEY_BITS - 1
        return min(KEY_BITS - distance.bit_length(), KEY_BITS - 1)

    def add(self, peer_id: PeerId) -> bool:
        """Insert or refresh a peer; returns True if present afterwards.

        A full bucket rejects new peers (see module docstring).
        """
        if peer_id == self.own_id:
            return False
        key_int = key_int_for_peer(peer_id)
        distance = self.own_key_int ^ key_int
        index = (
            KEY_BITS - 1 if distance == 0
            else min(KEY_BITS - distance.bit_length(), KEY_BITS - 1)
        )
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = {}
        existing = bucket.pop(peer_id, None)
        if existing is not None:
            bucket[peer_id] = existing  # re-insert at the tail (refresh)
            return True
        if len(bucket) >= self.bucket_size:
            return False
        bucket[peer_id] = key_int
        self._size += 1
        return True

    def load(self, peers: Sequence[PeerId]) -> None:
        """Fill this *empty* table from ``peers`` in one pass.

        Equivalent to calling :meth:`add` on each peer in order — same
        buckets, same least-recently-seen order within each — for a
        list that ``add`` would accept whole: no duplicate, not our own
        id, at most ``bucket_size`` peers per bucket. That is what a
        precomputed fill holds by construction, so the per-peer checks
        of ``add`` collapse into one check after the loop; a list that
        breaks them raises :class:`SimulationError` and leaves the
        table empty.
        """
        if self._size:
            raise SimulationError("bulk load needs an empty routing table")
        own = self.own_key_int
        buckets = self._buckets
        for peer_id in peers:
            key_int = peer_id.dht_key_int()
            # our own key (distance 0) lands in the top bucket here and
            # is rejected below
            index = min(KEY_BITS - (own ^ key_int).bit_length(), KEY_BITS - 1)
            bucket = buckets.get(index)
            if bucket is None:
                buckets[index] = {peer_id: key_int}
            else:
                bucket[peer_id] = key_int
        size = sum(map(len, buckets.values()))
        if (
            size != len(peers)
            or self.own_id in buckets.get(KEY_BITS - 1, ())
            or any(len(bucket) > self.bucket_size for bucket in buckets.values())
        ):
            buckets.clear()
            raise SimulationError(
                "bulk load needs distinct peers other than our own id, "
                f"at most {self.bucket_size} per bucket"
            )
        self._size = size

    def remove(self, peer_id: PeerId) -> None:
        """Evict a peer (e.g. after a failed dial)."""
        self._failures.pop(peer_id, None)
        bucket = self._buckets.get(self._bucket_for(peer_id), {})
        if peer_id in bucket:
            del bucket[peer_id]
            self._size -= 1

    # -- failure scoring ---------------------------------------------------

    def record_success(self, peer_id: PeerId) -> None:
        """A query succeeded: reset the peer's failure score."""
        self._failures.pop(peer_id, None)

    def record_failure(self, peer_id: PeerId) -> bool:
        """A query failed: bump the score; evict past the threshold.

        Returns True when the peer was evicted by this call.
        """
        count = self._failures.get(peer_id, 0) + 1
        if count >= self.failure_threshold:
            evicted = peer_id in self
            self.remove(peer_id)
            if evicted:
                self.evictions += 1
            return evicted
        self._failures[peer_id] = count
        return False

    def failure_score(self, peer_id: PeerId) -> int:
        """Current consecutive-failure count for ``peer_id``."""
        return self._failures.get(peer_id, 0)

    def _nearest_first(self, split: int) -> Iterator[Sequence[int]]:
        """Populated bucket indexes in groups, nearest group first, for
        a target sharing ``split`` leading bits with our own key."""
        buckets = self._buckets
        if split in buckets:
            yield (split,)
        deeper = [index for index in buckets if index > split]
        if deeper:
            yield deeper
        for index in sorted(buckets, reverse=True):
            if index < split:
                yield (index,)

    def closest(self, target_key: bytes, count: int = K_BUCKET_SIZE) -> list[PeerId]:
        """The ``count`` known peers closest to ``target_key`` by XOR.

        Exact, but without scanning the whole table (the selection of
        go-libp2p-kbucket's ``NearestPeers``). Let the target share
        ``c`` leading bits with our own key. Entries of bucket ``c``
        differ from us at bit ``c``, as the target does, so they share
        more than ``c`` bits with it; entries of every bucket above
        ``c`` agree with us at bit ``c``, so they share exactly ``c``;
        entries of a bucket ``j < c`` share exactly ``j``. A longer
        shared prefix is a smaller distance, hence every entry of
        bucket ``c`` is closer than every entry of the buckets above it
        (one group, their distances interleave), which are closer than
        bucket ``c - 1``, then ``c - 2``, ... ``0``. Sort group by
        group and stop once ``count`` peers are out: this is the
        hottest routing-table path (every FIND_NODE handler calls it),
        and a full bucket ``c`` answers it by sorting 20 entries.
        Distinct entries have distinct distances, so the result does
        not depend on scan order.
        """
        target = int.from_bytes(target_key, "big")
        split = min(
            KEY_BITS - (self.own_key_int ^ target).bit_length(), KEY_BITS - 1
        )
        buckets = self._buckets
        is_open = None if self.breakers is None else self.breakers.is_open
        found: list[PeerId] = []
        for group in self._nearest_first(split):
            pairs = [
                (key_int ^ target, peer_id)
                for index in group
                for peer_id, key_int in buckets[index].items()
            ]
            if is_open is not None:
                pairs = [pair for pair in pairs if not is_open(pair[1])]
            pairs.sort()
            found += [peer_id for _, peer_id in pairs]
            if len(found) >= count:
                del found[count:]
                break
        return found

    def peers(self) -> list[PeerId]:
        """All table entries (used by the crawler's bucket dumps)."""
        return [
            pid for index in sorted(self._buckets)
            for pid in self._buckets[index]
        ]

    def bucket_sizes(self) -> dict[int, int]:
        """Populated bucket index -> entry count (diagnostics)."""
        return {
            index: len(self._buckets[index])
            for index in sorted(self._buckets)
            if self._buckets[index]
        }

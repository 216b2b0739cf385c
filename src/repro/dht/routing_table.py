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

from array import array
from collections.abc import Callable, Iterator, Sequence
from itertools import groupby

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

    A table filled by :meth:`view` reads stored entries for life and
    copies a bucket into a dict only when a write changes it (see
    there).
    """

    # A crawled peer of a compact world attaches a table and nothing
    # else, so the table is its whole per-peer DHT cost.
    __slots__ = (
        "own_id", "own_key", "own_key_int", "bucket_size", "failure_threshold",
        "_buckets", "_size", "_view", "_failures", "evictions", "breakers",
    )

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
        #: view state (see :meth:`view`): None, or ``(keys, peers_at,
        #: grouped entries, populated bucket indexes, run bounds)``; a
        #: bucket in ``_buckets`` overrides its run
        self._view: tuple | None = None
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

    @property
    def copied_buckets(self) -> int:
        """How many buckets of a :meth:`view` writes have turned into
        dicts (0 for a table filled by :meth:`add` or :meth:`load`)."""
        return len(self._buckets) if self._view is not None else 0

    def __contains__(self, peer_id: PeerId) -> bool:
        if peer_id == self.own_id:
            return False
        index = self._bucket_for(peer_id)
        bucket = self._buckets.get(index)
        if bucket is not None:
            return peer_id in bucket
        return self._in_run(self._run(index), peer_id)

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
            run = self._run(index)
            if run is None:
                bucket = self._buckets[index] = {}
            elif len(run) >= self.bucket_size and not self._in_run(run, peer_id):
                return False  # what the full bucket would say; nothing to copy
            else:
                bucket = self._copy(index, run)
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
        table empty. A view that writes have emptied is empty too: it
        becomes a table of dict buckets.
        """
        if self._size:
            raise SimulationError("bulk load needs an empty routing table")
        self._view = None
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
            raise self._fill_error()
        self._size = size

    def _fill_error(self) -> SimulationError:
        return SimulationError(
            "bulk load needs distinct peers other than our own id, "
            f"at most {self.bucket_size} per bucket"
        )

    def view(
        self,
        entries: Sequence[int],
        keys: Sequence[int],
        peers_at: Callable[[Sequence[int]], list[PeerId]],
    ) -> None:
        """Fill this *empty* table with a view of ``entries``.

        ``entries`` are ints naming the peers :meth:`load` would take:
        ``keys[e]`` is the DHT key int of entry ``e``, and ``peers_at``
        maps a list of entries to the list of their ``PeerId`` objects.
        The entries are grouped by bucket once, one common-prefix length
        each, into one int array with the populated bucket indexes and
        their run bounds beside it: no dict and no ``PeerId`` per
        entry. The runs stay for the table's life. Every read (``in``,
        ``len``, :meth:`closest`, :meth:`peers`, :meth:`bucket_sizes`,
        :meth:`failure_score`) reads them as they stand, and names
        ``PeerId`` objects only for what it returns. A write copies on
        write, one bucket at a time: the first :meth:`add`,
        :meth:`remove` or evicting :meth:`record_failure` that changes a
        bucket turns its run into the dict bucket ``load`` would have
        built (entry order is its least-recently-seen order), and that
        dict overrides the run from then on. A full run that turns a
        newcomer away changes nothing and copies nothing. ``entries``
        must meet ``load``'s contract, checked here as there.
        """
        if self._size:
            raise SimulationError("bulk load needs an empty routing table")
        # Each entry's XOR distance length: bucket KEY_BITS - length
        # (length 0 is our own key). A stable sort by descending length
        # groups the entries by ascending bucket, each in entry order.
        lengths = list(map(
            int.bit_length, map(self.own_key_int.__xor__, map(keys.__getitem__, entries))
        ))
        order = sorted(range(len(entries)), key=lengths.__getitem__, reverse=True)
        populated = []
        bounds = array("H", [0])
        for length, run in groupby(map(lengths.__getitem__, order)):
            populated.append(min(KEY_BITS - length, KEY_BITS - 1))
            bounds.append(bounds[-1] + len(list(run)))
        if (
            len(set(entries)) != len(entries)
            or 0 in lengths
            or any(hi - lo > self.bucket_size for lo, hi in zip(bounds, bounds[1:]))
        ):
            raise self._fill_error()
        self._buckets.clear()  # emptied buckets would override the runs
        self._size = len(entries)
        self._view = (
            keys, peers_at, array("i", map(entries.__getitem__, order)),
            bytes(populated), bounds,
        )

    def _run(self, index: int) -> array | None:
        """A view's stored entries of bucket ``index`` in least-recently-
        seen order, or None (not a view, or no run there). Callers look
        in ``_buckets`` first: a copied bucket overrides its run."""
        view = self._view
        if view is None:
            return None
        populated, bounds = view[3], view[4]
        run = populated.find(index)
        if run < 0:
            return None
        return view[2][bounds[run]:bounds[run + 1]]

    def _in_run(self, run: array | None, peer_id: PeerId) -> bool:
        # distinct peers have distinct keys: compare keys, name no one
        return run is not None and key_int_for_peer(peer_id) in map(
            self._view[0].__getitem__, run
        )

    def _copy(self, index: int, run: array) -> dict[PeerId, int]:
        """Bucket ``index``'s run as the dict ``load`` builds, installed
        over the run."""
        keys, peers_at = self._view[:2]
        bucket = self._buckets[index] = dict(zip(peers_at(run), map(keys.__getitem__, run)))
        return bucket

    def remove(self, peer_id: PeerId) -> None:
        """Evict a peer (e.g. after a failed dial)."""
        self._failures.pop(peer_id, None)
        index = self._bucket_for(peer_id)
        bucket = self._buckets.get(index)
        if bucket is None:
            run = self._run(index)
            if not self._in_run(run, peer_id):
                return
            bucket = self._copy(index, run)
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

    @staticmethod
    def _nearest_first(split: int, buckets) -> Iterator[Sequence[int]]:
        """The populated bucket indexes ``buckets`` in groups, nearest
        group first, for a target sharing ``split`` leading bits with
        our own key."""
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
        not depend on scan order — nor on whether a group's buckets are
        dicts, a view's entry runs, or some of each.
        """
        target = int.from_bytes(target_key, "big")
        split = min(
            KEY_BITS - (self.own_key_int ^ target).bit_length(), KEY_BITS - 1
        )
        is_open = None if self.breakers is None else self.breakers.is_open
        buckets = self._buckets
        view = self._view
        if view is None:
            indexes = buckets
        else:
            # a run's pairs carry entry ints, named only once chosen
            keys, peers_at, grouped, populated, bounds = view
            indexes = buckets.keys() | populated if buckets else populated
            if is_open is not None:
                is_open = lambda item, is_open=is_open: is_open(
                    peers_at((item,))[0] if type(item) is int else item
                )
        found: list = []
        for group in self._nearest_first(split, indexes):
            pairs = []
            for index in group:
                bucket = buckets.get(index)
                if bucket is not None:
                    pairs += [
                        (key_int ^ target, peer_id)
                        for peer_id, key_int in bucket.items()
                    ]
                else:
                    run = populated.index(index)
                    pairs += [
                        (keys[entry] ^ target, entry)
                        for entry in grouped[bounds[run]:bounds[run + 1]]
                    ]
            if is_open is not None:
                pairs = [pair for pair in pairs if not is_open(pair[1])]
            pairs.sort()
            found += [item for _, item in pairs]
            if len(found) >= count:
                del found[count:]
                break
        if view is None:
            return found
        if not buckets:
            return peers_at(found)
        named = iter(peers_at([item for item in found if type(item) is int]))
        return [next(named) if type(item) is int else item for item in found]

    def _indexes(self) -> list[int]:
        """Every bucket index with a dict or a run, ascending."""
        if self._view is None:
            return sorted(self._buckets)
        return sorted(self._buckets.keys() | self._view[3])

    def _bucket_peers(self, index: int) -> list[PeerId]:
        bucket = self._buckets.get(index)
        if bucket is not None:
            return list(bucket)
        return self._view[1](self._run(index))

    def peers(self) -> list[PeerId]:
        """All table entries (used by the crawler's bucket dumps)."""
        return [pid for index in self._indexes() for pid in self._bucket_peers(index)]

    def bucket_sizes(self) -> dict[int, int]:
        """Populated bucket index -> entry count (diagnostics)."""
        sizes = {}
        for index in self._indexes():
            bucket = self._buckets.get(index)
            size = len(bucket) if bucket is not None else len(self._run(index))
            if size:
                sizes[index] = size
        return sizes

"""The Kademlia routing table: 256 k-buckets of 20 peers each.

Bucket ``i`` holds peers whose DHT key shares exactly ``i`` leading
bits with ours. Buckets follow least-recently-seen discipline: a full
bucket rejects newcomers; refreshing an existing entry moves it to the
tail (classic Kademlia favours long-lived peers, which the churn
analysis of Section 5.3 justifies: old peers are likelier to stay).

Only *DHT servers* are ever inserted (Section 2.3): the caller filters
out clients, which is the v0.5 change the paper credits with a major
performance boost.

A precomputed fill can be read without a table: a *run view* is the
tuple ``(entries, keys, peers_at, base, runs)`` over a slice of a flat
array of stored entries, and :func:`nearest` answers from it.
``runs`` is one ``bytes``: the populated bucket indexes in stored
order, then each run's length. The fill's keyspace walk derives it
(:func:`~repro.dht.bootstrap.table_runs`) without reading the entries.
:meth:`RoutingTable.view` makes a table of one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from operator import itemgetter

from repro.dht.keyspace import KEY_BITS, key_int_for_peer, key_for_peer
from repro.errors import SimulationError
from repro.multiformats.peerid import PeerId

#: Bucket capacity and record replication factor (Section 2.3).
K_BUCKET_SIZE = 20

#: A ``(distance, item)`` pair's sort key in :func:`nearest`
_distance = itemgetter(0)


def run_bounds(view: tuple | None, index: int) -> tuple[int, int] | None:
    """Where bucket ``index``'s run lies in a run view's entries, or
    None (no view, or no run there)."""
    if view is None:
        return None
    base, runs = view[3], view[4]
    populated = len(runs) >> 1
    run = runs.find(index, 0, populated)
    if run < 0:
        return None
    lo = base + sum(runs[populated:populated + run])
    return lo, lo + runs[populated + run]


def run_holds(view: tuple, bounds: tuple[int, int] | None, key_int: int) -> bool:
    """Whether the run at ``bounds`` holds the peer with DHT key
    ``key_int``. Distinct peers have distinct keys, so keys are
    compared and no one is named."""
    if bounds is None:
        return False
    entries, keys = view[:2]
    return key_int in map(keys.__getitem__, entries[bounds[0]:bounds[1]])


def run_takes(view: tuple, bounds: tuple[int, int], key_int: int) -> bool:
    """Whether :meth:`RoutingTable.add` of the peer with DHT key
    ``key_int`` changes the run at ``bounds``: the run has room, or
    already holds the peer (a refresh moves it to the tail)."""
    return bounds[1] - bounds[0] < K_BUCKET_SIZE or run_holds(view, bounds, key_int)


def _nearest_first(split: int, buckets) -> Iterator[Sequence[int]]:
    """The populated bucket indexes ``buckets`` in groups, nearest
    group first, for a target sharing ``split`` leading bits with our
    own key."""
    if split in buckets:
        yield (split,)
    deeper = [index for index in buckets if index > split]
    if deeper:
        yield deeper
    for index in sorted(buckets, reverse=True):
        if index < split:
            yield (index,)


def nearest(
    own_key_int: int,
    target_key: bytes,
    count: int,
    buckets: dict[int, dict[PeerId, int]],
    view: tuple | None = None,
    is_open: Callable[[PeerId], bool] | None = None,
) -> list[PeerId]:
    """The ``count`` peers closest to ``target_key`` by XOR among the
    dict ``buckets`` (bucket index -> peer -> DHT key int) and the runs
    of ``view``, a dict bucket overriding its run; peers for which
    ``is_open`` holds are skipped. The one closest-k selection:
    :meth:`RoutingTable.closest` and a compact world's table stage
    both answer through it.

    Exact, but without scanning the whole table (the selection of
    go-libp2p-kbucket's ``NearestPeers``). Let the target share ``c``
    leading bits with our own key. Entries of bucket ``c`` differ from
    us at bit ``c``, as the target does, so they share more than ``c``
    bits with it; entries of every bucket above ``c`` agree with us at
    bit ``c``, so they share exactly ``c``; entries of a bucket
    ``j < c`` share exactly ``j``. A longer shared prefix is a smaller
    distance, hence every entry of bucket ``c`` is closer than every
    entry of the buckets above it (one group, their distances
    interleave), which are closer than bucket ``c - 1``, then
    ``c - 2``, ... ``0``. Sort group by group and stop once ``count``
    peers are out: this is the hottest routing-table path (every
    FIND_NODE answer takes it), and a full bucket ``c`` answers it by
    sorting 20 entries. Distinct entries have distinct distances, so a
    group's ``(distance, item)`` pairs are sorted by their int distance
    alone (a tuple comparison would test the distances for equality
    first, and could compare a ``PeerId`` with an entry int), and the
    result does not depend on scan order — nor on whether a group's
    buckets are dicts, runs, or some of each. A run's pairs carry
    entry ints, named only once chosen.
    """
    target = int.from_bytes(target_key, "big")
    split = min(KEY_BITS - (own_key_int ^ target).bit_length(), KEY_BITS - 1)
    if view is None:
        indexes = buckets
    else:
        entries, keys, peers_at, base, runs = view
        n_runs = len(runs) >> 1
        populated = runs[:n_runs]
        indexes = buckets.keys() | set(populated) if buckets else populated
        if is_open is not None:
            is_open = lambda item, is_open=is_open: is_open(
                peers_at((item,))[0] if type(item) is int else item
            )
    found: list = []
    for group in _nearest_first(split, indexes):
        pairs = []
        for index in group:
            bucket = buckets.get(index)
            if bucket is not None:
                pairs += [
                    (key_int ^ target, peer_id) for peer_id, key_int in bucket.items()
                ]
            else:
                run = populated.find(index)
                lo = base + sum(runs[n_runs:n_runs + run])
                pairs += [
                    (keys[entry] ^ target, entry)
                    for entry in entries[lo:lo + runs[n_runs + run]]
                ]
        if is_open is not None:
            pairs = [pair for pair in pairs if not is_open(pair[1])]
        pairs.sort(key=_distance)
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

    # A compact world attaches a table only where a write changes the
    # stored fill, so the table is a written peer's whole DHT cost.
    __slots__ = (
        "own_id", "own_key", "own_key_int", "failure_threshold",
        "_buckets", "_size", "_view", "_failures", "evictions", "breakers",
    )

    def __init__(self, own_id: PeerId, failure_threshold: int = 1) -> None:
        self.own_id = own_id
        self.own_key = key_for_peer(own_id)
        self.own_key_int = key_int_for_peer(own_id)
        self.failure_threshold = max(1, failure_threshold)
        # Bucket dicts map peer -> cached DHT key int; insertion order
        # doubles as the least-recently-seen order (a refresh re-inserts
        # at the tail). Buckets are allocated *sparsely*, keyed by
        # index: a table only ever populates O(log n) of its 256
        # buckets, and the 256 upfront empty dicts (~16 KB/table) were
        # the dominant per-peer memory cost at 100k+ peers.
        self._buckets: dict[int, dict[PeerId, int]] = {}
        self._size = 0
        #: the run view this table reads (see :meth:`view`), or None; a
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
        dicts (0 for a table that is not a view)."""
        return len(self._buckets) if self._view is not None else 0

    def __contains__(self, peer_id: PeerId) -> bool:
        if peer_id == self.own_id:
            return False
        index = self._bucket_for(peer_id)
        bucket = self._buckets.get(index)
        if bucket is not None:
            return peer_id in bucket
        return run_holds(self._view, run_bounds(self._view, index), key_int_for_peer(peer_id))

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
            bounds = run_bounds(self._view, index)
            if bounds is None:
                bucket = self._buckets[index] = {}
            elif not run_takes(self._view, bounds, key_int):
                return False  # what the full bucket would say; nothing to copy
            else:
                bucket = self._copy(index, bounds)
        existing = bucket.pop(peer_id, None)
        if existing is not None:
            bucket[peer_id] = existing  # re-insert at the tail (refresh)
            return True
        if len(bucket) >= K_BUCKET_SIZE:
            return False
        bucket[peer_id] = key_int
        self._size += 1
        return True

    def view(
        self,
        entries: Sequence[int],
        keys: Sequence[int],
        peers_at: Callable[[Sequence[int]], list[PeerId]],
        base: int,
        runs: bytes,
    ) -> None:
        """Fill this *empty* table with the run view ``(entries, keys,
        peers_at, base, runs)``.

        ``runs`` locates this table's buckets in ``entries`` from
        ``base``: the populated bucket indexes in stored order, then
        each run's length, as :func:`~repro.dht.bootstrap.table_runs`
        derives them for this table's own key from the walk that stored
        the entries. Each bucket is one run in least-recently-seen
        order, never our own key, at most ``K_BUCKET_SIZE`` entries.
        ``keys[e]`` is the DHT key int of entry ``e``, and ``peers_at``
        maps a list of entries to the list of their ``PeerId`` objects.
        Every bulk fill takes this path
        (:func:`~repro.dht.bootstrap.fill_positions`). The table keeps
        references, no copy: no dict and no ``PeerId`` per entry. Every
        read (``in``, ``len``, :meth:`closest`, :meth:`peers`,
        :meth:`bucket_sizes`, :meth:`failure_score`) reads the runs as
        they stand, and names ``PeerId`` objects only for what it
        returns. A write copies on write, one bucket at a time: the
        first :meth:`add`, :meth:`remove` or evicting
        :meth:`record_failure` that changes a bucket turns its run into
        the dict bucket that replaying :meth:`add` over the run's
        entries would have built (entry order is its least-recently-seen
        order), and that dict overrides the run from then on. A full run
        that turns a newcomer away changes nothing and copies nothing.
        A view that writes have emptied is empty: it takes a new view.
        """
        if self._size:
            raise SimulationError("a view needs an empty routing table")
        self._buckets.clear()  # emptied buckets would override the runs
        self._size = sum(runs[len(runs) >> 1:])
        self._view = (entries, keys, peers_at, base, runs)

    def _copy(self, index: int, bounds: tuple[int, int]) -> dict[PeerId, int]:
        """Bucket ``index``'s run as the dict replayed ``add`` calls
        build, installed over the run."""
        entries, keys, peers_at = self._view[:3]
        run = entries[bounds[0]:bounds[1]]
        bucket = self._buckets[index] = dict(zip(peers_at(run), map(keys.__getitem__, run)))
        return bucket

    def remove(self, peer_id: PeerId) -> None:
        """Evict a peer (e.g. after a failed dial)."""
        self._failures.pop(peer_id, None)
        index = self._bucket_for(peer_id)
        bucket = self._buckets.get(index)
        if bucket is None:
            bounds = run_bounds(self._view, index)
            if not run_holds(self._view, bounds, key_int_for_peer(peer_id)):
                return
            bucket = self._copy(index, bounds)
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

    def closest(self, target_key: bytes, count: int = K_BUCKET_SIZE) -> list[PeerId]:
        """The ``count`` known peers closest to ``target_key`` by XOR,
        skipping peers whose breaker is open (see :func:`nearest`)."""
        return nearest(
            self.own_key_int, target_key, count, self._buckets, self._view,
            None if self.breakers is None else self.breakers.is_open,
        )

    def _indexes(self) -> list[int]:
        """Every bucket index with a dict or a run, ascending."""
        if self._view is None:
            return sorted(self._buckets)
        runs = self._view[4]
        return sorted(self._buckets.keys() | set(runs[:len(runs) >> 1]))

    def _bucket_peers(self, index: int) -> list[PeerId]:
        bucket = self._buckets.get(index)
        if bucket is not None:
            return list(bucket)
        entries, _, peers_at = self._view[:3]
        lo, hi = run_bounds(self._view, index)
        return peers_at(entries[lo:hi])

    def peers(self) -> list[PeerId]:
        """All table entries (used by the crawler's bucket dumps)."""
        return [pid for index in self._indexes() for pid in self._bucket_peers(index)]

    def bucket_sizes(self) -> dict[int, int]:
        """Populated bucket index -> entry count (diagnostics)."""
        sizes = {}
        for index in self._indexes():
            bucket = self._buckets.get(index)
            if bucket is not None:
                size = len(bucket)
            else:
                lo, hi = run_bounds(self._view, index)
                size = hi - lo
            if size:
                sizes[index] = size
        return sizes

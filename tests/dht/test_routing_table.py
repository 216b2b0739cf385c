"""Tests for the k-bucket routing table."""

import random
from array import array
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.crawl import bucket_probe_key
from repro.dht.keyspace import bucket_index, key_for_peer, xor_distance
from repro.dht.routing_table import K_BUCKET_SIZE, RoutingTable
from repro.errors import SimulationError
from repro.multiformats.peerid import PeerId
from tests.helpers import bucket_runs


def pid(n: int) -> PeerId:
    return PeerId.from_public_key(b"peer-%d" % n)


def test_k_is_20():
    # Section 2.3: "we maintain i=256 buckets of k-nodes each (where k=20)".
    assert K_BUCKET_SIZE == 20


def test_add_and_contains():
    table = RoutingTable(pid(0))
    assert table.add(pid(1))
    assert pid(1) in table
    assert len(table) == 1


def test_self_never_added():
    table = RoutingTable(pid(0))
    assert not table.add(pid(0))
    assert pid(0) not in table


def test_refresh_is_idempotent():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    assert table.add(pid(1))
    assert len(table) == 1


def test_remove():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    table.remove(pid(1))
    assert pid(1) not in table
    assert len(table) == 0
    table.remove(pid(1))  # no error


def test_bucket_capacity_enforced():
    table = RoutingTable(pid(0))
    added = sum(1 for n in range(1, 200) if table.add(pid(n)))
    sizes = table.bucket_sizes()
    assert all(size <= K_BUCKET_SIZE for size in sizes.values())
    assert K_BUCKET_SIZE in sizes.values()  # some bucket filled up
    assert added == len(table) < 199


def test_full_bucket_rejects_newcomer():
    table = RoutingTable(pid(0))
    # Find K_BUCKET_SIZE + 1 peers that land in the same bucket.
    own_key = key_for_peer(pid(0))
    by_bucket: dict[int, list[PeerId]] = {}
    for n in range(1, 500):
        bucket = bucket_index(own_key, key_for_peer(pid(n)))
        group = by_bucket.setdefault(bucket, [])
        group.append(pid(n))
        if len(group) == K_BUCKET_SIZE + 1:
            *full, newcomer = group
            break
    assert all(table.add(peer) for peer in full)
    assert not table.add(newcomer)
    assert newcomer not in table


def test_closest_returns_sorted_by_xor():
    table = RoutingTable(pid(0))
    target = key_for_peer(pid(9999))
    for n in range(1, 100):
        table.add(pid(n))
    closest = table.closest(target, 10)
    distances = [xor_distance(key_for_peer(p), target) for p in closest]
    assert distances == sorted(distances)
    # And they truly are the minimum over the whole table.
    all_distances = sorted(
        xor_distance(key_for_peer(p), target) for p in table.peers()
    )
    assert distances == all_distances[:10]


def test_closest_handles_small_table():
    table = RoutingTable(pid(0))
    table.add(pid(1))
    assert table.closest(key_for_peer(pid(2)), 20) == [pid(1)]


def test_closest_on_empty_table():
    assert RoutingTable(pid(0)).closest(key_for_peer(pid(1))) == []


def test_peers_lists_everything():
    table = RoutingTable(pid(0))
    for n in range(1, 30):
        table.add(pid(n))
    assert set(table.peers()) == {pid(n) for n in range(1, 30)} & set(table.peers())
    assert len(table.peers()) == len(table)


def test_default_threshold_evicts_on_first_failure():
    # go-ipfs v0.10 drops a peer from the table on its first failed query.
    table = RoutingTable(pid(0))
    table.add(pid(1))
    assert table.record_failure(pid(1))
    assert pid(1) not in table
    assert table.evictions == 1


def test_threshold_tolerates_transient_failures():
    table = RoutingTable(pid(0), failure_threshold=3)
    table.add(pid(1))
    assert not table.record_failure(pid(1))
    assert not table.record_failure(pid(1))
    assert table.failure_score(pid(1)) == 2
    assert pid(1) in table
    assert table.record_failure(pid(1))
    assert pid(1) not in table
    assert table.evictions == 1


def test_success_resets_failure_score():
    table = RoutingTable(pid(0), failure_threshold=2)
    table.add(pid(1))
    table.record_failure(pid(1))
    table.record_success(pid(1))
    assert table.failure_score(pid(1)) == 0
    assert not table.record_failure(pid(1))
    assert pid(1) in table


def test_eviction_of_absent_peer_not_counted():
    table = RoutingTable(pid(0))
    assert not table.record_failure(pid(1))
    assert table.evictions == 0


def test_remove_clears_failure_score():
    table = RoutingTable(pid(0), failure_threshold=3)
    table.add(pid(1))
    table.record_failure(pid(1))
    table.remove(pid(1))
    assert table.failure_score(pid(1)) == 0


@settings(max_examples=20)
@given(st.sets(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=60))
def test_closest_is_exact_property(ns):
    table = RoutingTable(pid(0))
    for n in ns:
        table.add(pid(n))
    target = key_for_peer(pid(123456))
    got = table.closest(target, 5)
    expected = sorted(table.peers(), key=lambda p: xor_distance(key_for_peer(p), target))[:5]
    assert got == expected


# -- bucket-ordered ``closest`` ≡ brute force ---------------------------------

OWN = pid(0)
OWN_KEY = key_for_peer(OWN)


def _peer_pool() -> list[PeerId]:
    """Up to 25 peers per bucket of OWN's table, so that deep buckets
    (hash-derived keys reach cpl ~11 in a few thousand draws) are as
    likely to be drawn as bucket 0."""
    by_bucket: dict[int, list[PeerId]] = {}
    for n in range(1, 4000):
        peer = pid(n)
        bucket = by_bucket.setdefault(bucket_index(OWN_KEY, key_for_peer(peer)), [])
        if len(bucket) < 25:
            bucket.append(peer)
    return [peer for bucket in by_bucket.values() for peer in bucket]


POOL = _peer_pool()
#: POOL and OWN in key order: the stored positions a view indexes
KEYED = sorted(POOL + [OWN], key=PeerId.dht_key_int)
KEYED_INTS = [peer.dht_key_int() for peer in KEYED]
POSITION = {peer: pos for pos, peer in enumerate(KEYED)}


def fill_view(table: RoutingTable, peers: list[PeerId]) -> None:
    """View ``peers`` as a fill stores them: positions into KEYED,
    grouped by bucket, each bucket in the given (LRU) order, behind one
    unrelated stored entry (a view reads its slice of a flat array)."""
    grouped = sorted(peers, key=lambda peer: bucket_index(OWN_KEY, key_for_peer(peer)))
    entries = array("i", [POSITION[POOL[0]]] + [POSITION[peer] for peer in grouped])
    runs = bucket_runs(table.own_key_int, KEYED_INTS, entries, 1, len(entries))
    table.view(
        entries, KEYED_INTS, lambda positions: [KEYED[pos] for pos in positions], 1, runs
    )


def view_of(peers: list[PeerId], **table_args) -> RoutingTable:
    """A table that is a view of ``peers`` (see :func:`fill_view`)."""
    table = RoutingTable(OWN, **table_args)
    fill_view(table, peers)
    return table


class OpenBreakers:
    """The slice of the breaker registry ``closest`` consults."""

    def __init__(self, open_peers: set[PeerId]) -> None:
        self.open_peers = open_peers

    def is_open(self, peer_id: PeerId) -> bool:
        return peer_id in self.open_peers


def brute_force_closest(table: RoutingTable, target: bytes, count: int) -> list[PeerId]:
    breakers = table.breakers
    candidates = [
        p for p in table.peers() if breakers is None or not breakers.is_open(p)
    ]
    candidates.sort(key=lambda p: xor_distance(key_for_peer(p), target))
    return candidates[:count]


def probe_targets(table: RoutingTable, rng: random.Random) -> list[bytes]:
    """Our own key, an entry's key, one key at every cpl 0..12 from our
    own (each picks a different first group) and a few random keys."""
    targets = [OWN_KEY]
    entries = table.peers()
    if entries:
        targets.append(key_for_peer(rng.choice(entries)))
    targets += [bucket_probe_key(OWN_KEY, cpl, rng) for cpl in range(13)]
    targets += [rng.getrandbits(256).to_bytes(32, "big") for _ in range(3)]
    return targets


peers_st = st.sampled_from(POOL)
#: offered peers: near-empty tables and ones with full buckets alike
offered_st = st.one_of(
    st.lists(peers_st, max_size=30),
    st.lists(peers_st, min_size=100, max_size=250),
)
#: interleaved table traffic: (operation, peer)
ops_st = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "record_failure"]), peers_st),
    max_size=40,
)


def apply_ops(table: RoutingTable, ops: list[tuple[str, PeerId]]) -> None:
    for op, peer in ops:
        getattr(table, op)(peer)


def apply_ops_to_view(table: RoutingTable, ops: list[tuple[str, PeerId]]) -> None:
    """``apply_ops`` on a view, holding every step to copy-on-write: a
    write copies at most the one bucket it touches, a full bucket that
    turns a newcomer away copies nothing, and no read copies at all."""
    for op, peer in ops:
        # which buckets are dicts is internal state: peek at it here
        before = set(table._buckets)
        result = getattr(table, op)(peer)
        copied = set(table._buckets) - before
        assert copied <= {bucket_index(OWN_KEY, key_for_peer(peer))}
        if op == "add" and not result:
            assert not copied, "a rejection by a full bucket copied it"
        copies = table.copied_buckets
        assert copies == len(before | copied)
        assert (peer in table) == (peer in table.peers())
        table.closest(key_for_peer(peer), K_BUCKET_SIZE)
        table.bucket_sizes()
        table.failure_score(peer)
        assert table.copied_buckets == copies, "a read copied a bucket"


@settings(max_examples=60, deadline=None)
@given(
    initial=offered_st,
    ops=ops_st,
    open_peers=st.sets(peers_st, max_size=30),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_closest_equals_brute_force(initial, ops, open_peers, seed):
    rng = random.Random(seed)
    table = RoutingTable(OWN, failure_threshold=2)
    for peer in initial:
        table.add(peer)  # repeats in `initial` are refreshes
    # the twin: a view of what the adds kept, in bucket and LRU order
    viewed = view_of(table.peers(), failure_threshold=2)

    def check():
        for target in probe_targets(table, rng):
            for count in (1, rng.randint(2, 19), K_BUCKET_SIZE, rng.randint(21, 50)):
                expected = brute_force_closest(table, target, count)
                assert table.closest(target, count) == expected
                assert viewed.closest(target, count) == expected
        assert len(viewed) == len(table)

    check()
    table.breakers = viewed.breakers = OpenBreakers(open_peers)
    check()
    assert viewed.copied_buckets == 0  # closest honoured is_open by reading
    apply_ops(table, ops)
    apply_ops_to_view(viewed, ops)
    check()


def test_closest_spills_past_a_filtered_first_bucket():
    # With the whole nearest bucket behind open breakers the answer
    # must come from the following groups, still in distance order.
    table = RoutingTable(OWN)
    for peer in POOL:
        table.add(peer)
    target = bucket_probe_key(OWN_KEY, 1, random.Random(5))
    table.breakers = OpenBreakers(
        {p for p in table.peers() if bucket_index(OWN_KEY, key_for_peer(p)) == 1}
    )
    got = table.closest(target, K_BUCKET_SIZE)
    assert len(got) == K_BUCKET_SIZE
    assert got == brute_force_closest(table, target, K_BUCKET_SIZE)


# -- a stored fill's view ≡ replayed ``add`` -----------------------------


def bucket_layout(table: RoutingTable) -> dict[int, list[PeerId]]:
    """Populated buckets with their entries in least-recently-seen
    order, through the public reads: ``peers`` lists them bucket by
    bucket, ``bucket_sizes`` says where each bucket ends."""
    peers = iter(table.peers())
    layout = {
        index: list(islice(peers, size))
        for index, size in table.bucket_sizes().items()
    }
    assert next(peers, None) is None
    for index, bucket in layout.items():
        assert {bucket_index(OWN_KEY, key_for_peer(p)) for p in bucket} == {index}
    return layout


def assert_same_table(viewed: RoutingTable, replayed: RoutingTable) -> None:
    assert bucket_layout(viewed) == bucket_layout(replayed)
    assert viewed.peers() == replayed.peers()
    assert len(viewed) == len(replayed)
    assert viewed.bucket_sizes() == replayed.bucket_sizes()


@settings(max_examples=60, deadline=None)
@given(
    offered=offered_st.map(lambda peers: list(dict.fromkeys(peers))),
    ops=ops_st,
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_view_equals_replayed_add(offered, ops, seed):
    replayed = RoutingTable(OWN)
    # what a precomputed fill stores: the peers `add` accepted, in order
    accepted = [peer for peer in offered if replayed.add(peer)]
    viewed = view_of(accepted)
    rng = random.Random(seed)
    for target in probe_targets(replayed, rng):
        for count in (1, rng.randint(2, 19), K_BUCKET_SIZE, rng.randint(21, 50)):
            assert viewed.closest(target, count) == replayed.closest(target, count)
    assert len(viewed) == len(replayed)
    assert_same_table(viewed, replayed)
    assert viewed.copied_buckets == 0
    # ... and the two stay the same table under later traffic:
    # refreshes, rejections by full buckets, evictions (a write to the
    # view copies the one bucket it changes)
    apply_ops_to_view(viewed, ops)
    apply_ops(replayed, ops)
    target = key_for_peer(pid(123456))
    assert viewed.closest(target) == replayed.closest(target)
    assert_same_table(viewed, replayed)
    assert viewed.evictions == replayed.evictions


def test_a_write_to_a_view_copies_only_the_bucket_it_changes():
    near = _same_bucket_peers(K_BUCKET_SIZE + 1)
    full, newcomer = near[:-1], near[-1]
    far = [p for p in POOL if bucket_index(OWN_KEY, key_for_peer(p)) == 1][:3]
    viewed = view_of(full + far)
    assert not viewed.add(newcomer)  # the full bucket turns it away
    assert viewed.copied_buckets == 0
    viewed.remove(newcomer)  # nobody to evict
    assert viewed.copied_buckets == 0
    assert viewed.add(full[0])  # a refresh moves it to the tail
    assert viewed.copied_buckets == 1
    assert bucket_layout(viewed) == {0: full[1:] + full[:1], 1: far}
    viewed.remove(far[1])
    assert viewed.copied_buckets == 2
    assert bucket_layout(viewed) == {0: full[1:] + full[:1], 1: [far[0], far[2]]}
    assert len(viewed) == K_BUCKET_SIZE + 2


def _same_bucket_peers(count: int) -> list[PeerId]:
    return [
        p for p in POOL if bucket_index(OWN_KEY, key_for_peer(p)) == 0
    ][:count]


@pytest.mark.parametrize(
    "peers",
    [
        pytest.param([POOL[0], OWN, POOL[1]], id="own-id"),
        pytest.param([POOL[0], POOL[1], POOL[0]], id="duplicate"),
        pytest.param(_same_bucket_peers(K_BUCKET_SIZE + 1), id="over-full-bucket"),
    ],
)
def test_view_rejects_what_add_would_not_take_whole(peers):
    # A fill's walk derives runs that hold all this by construction;
    # the reference runs `fill_view` takes refuse a stored fill that
    # does not.
    table = RoutingTable(OWN)
    with pytest.raises(SimulationError):
        fill_view(table, peers)
    assert len(table) == 0 and table.peers() == []
    fill_view(table, peers[:1])  # still usable: the failed view left it empty
    assert table.peers() == peers[:1]


def test_bucket_runs_needs_each_bucket_stored_in_one_run():
    near = _same_bucket_peers(2)
    far = [p for p in POOL if bucket_index(OWN_KEY, key_for_peer(p)) == 1][:1]
    own = OWN.dht_key_int()
    entries = array("i", [POSITION[peer] for peer in near + far])
    assert bucket_runs(own, KEYED_INTS, entries, 0, 3) == bytes([0, 1, 2, 1])
    assert bucket_runs(own, KEYED_INTS, entries, 1, 3) == bytes([0, 1, 1, 1])
    assert bucket_runs(own, KEYED_INTS, entries, 3, 3) == b""
    split = array("i", [POSITION[peer] for peer in (near[0], far[0], near[1])])
    with pytest.raises(SimulationError):
        bucket_runs(own, KEYED_INTS, split, 0, 3)


def test_an_emptied_table_fills_again_either_way():
    # remove every entry, then fill: a view and a table of dict buckets
    # both take a new view
    replayed = RoutingTable(OWN)
    accepted = [peer for peer in POOL[:80] if replayed.add(peer)]
    viewed, added = view_of(accepted), RoutingTable(OWN)
    for peer in accepted:
        added.add(peer)
    for table in (viewed, added):
        for peer in table.peers():
            table.remove(peer)
        assert len(table) == 0 and table.peers() == [] and table.bucket_sizes() == {}
        fill_view(table, accepted)
        assert_same_table(table, replayed)
        assert table.copied_buckets == 0
        target = key_for_peer(pid(4242))
        assert table.closest(target) == replayed.closest(target)


def test_view_rejects_a_non_empty_table():
    table = RoutingTable(OWN)
    table.add(POOL[0])
    with pytest.raises(SimulationError):
        fill_view(table, [POOL[1]])
    assert table.peers() == [POOL[0]]

"""``populate_routing_tables`` runs the one fill every world runs
(``fill_positions``: per node, a walk down the per-world
``KeyspaceTree`` that spells out ``random.sample``'s draws) and gives
each node a run view over the flat array of picks
(``RoutingTable.view``). The loop it replaced — a shift and five
bisects per bucket for every node, real ``rng.sample`` calls, one
``add`` per pick — is kept here as the reference: same tables, same
order, same RNG stream."""

import bisect
import random

import pytest

from repro.dht import bootstrap
from repro.dht.bootstrap import populate_routing_tables
from repro.dht.keyspace import KEY_BITS, key_for_peer
from repro.dht.routing_table import K_BUCKET_SIZE, RoutingTable
from repro.errors import SimulationError
from repro.experiments import figures
from repro.experiments.scenario import ScenarioConfig
from repro.simnet import compact
from repro.simnet.compact import build_compact_world
from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig
from tests.helpers import build_world


def _populate_by_add(nodes, rng, caps, stale_fraction=0.05):
    """The fill as it was before the bulk fill and the shared tree:
    every node rediscovers its bucket intervals, one ``add`` per pick;
    node ``i`` takes at most ``caps[i % len(caps)]`` per bucket."""
    servers = [n for n in nodes if n.server]
    ordered = sorted(
        (int.from_bytes(key_for_peer(n.host.peer_id), "big"), n.host.peer_id, n)
        for n in servers
    )
    keys = [key for key, _, _ in ordered]
    ids = [peer_id for _, peer_id, _ in ordered]
    reachable = [n.host.reachable for _, _, n in ordered]
    live_positions = [i for i, ok in enumerate(reachable) if ok]
    stale_positions = [i for i, ok in enumerate(reachable) if not ok]
    leftover_draws = 0

    for index, node in enumerate(nodes):
        own_int = node.host.peer_id.dht_key_int()
        cap = caps[index % len(caps)]
        add = node.routing_table.add
        cur_lo, cur_hi = 0, len(keys)
        for bucket in range(KEY_BITS):
            if cur_hi - cur_lo <= cap:
                for index in range(cur_lo, cur_hi):
                    if keys[index] != own_int:
                        add(ids[index])
                break
            shift = KEY_BITS - bucket - 1
            prefix = own_int >> shift
            if prefix & 1:
                mid = bisect.bisect_left(keys, prefix << shift, cur_lo, cur_hi)
                start, end = cur_lo, mid
                cur_lo = mid
            else:
                mid = bisect.bisect_left(keys, (prefix ^ 1) << shift, cur_lo, cur_hi)
                start, end = mid, cur_hi
                cur_hi = mid
            if start >= end:
                continue
            population = range(start, end)
            if len(population) <= cap:
                chosen = list(population)
            else:
                live = live_positions[
                    bisect.bisect_left(live_positions, start):
                    bisect.bisect_left(live_positions, end)
                ]
                stale = stale_positions[
                    bisect.bisect_left(stale_positions, start):
                    bisect.bisect_left(stale_positions, end)
                ]
                n_stale = min(len(stale), int(cap * stale_fraction))
                chosen = rng.sample(live, min(len(live), cap - n_stale))
                chosen += rng.sample(stale, n_stale)
                if len(chosen) < cap:
                    leftover_draws += 1
                    leftovers = [i for i in stale if i not in set(chosen)]
                    chosen += rng.sample(
                        leftovers, min(len(leftovers), cap - len(chosen))
                    )
            for index in chosen:
                if keys[index] != own_int:
                    add(ids[index])
    return leftover_draws


def _fill_by_kernel(nodes, rng, caps, stale_fraction):
    """``populate_routing_tables`` with the kernel's own ``cap`` and
    ``max_stale`` in place of ``K_BUCKET_SIZE`` and the
    ``STALE_FRACTION`` quota; each pick is replayed through ``add``
    (no bucket receives more than ``K_BUCKET_SIZE``, so it takes all)."""
    ordered = sorted(
        (int.from_bytes(key_for_peer(n.host.peer_id), "big"), n.host.peer_id, n)
        for n in nodes
        if n.server
    )
    ids = [peer_id for _, peer_id, _ in ordered]
    tree = bootstrap.KeyspaceTree(
        [key for key, _, _ in ordered],
        [i for i, (_, _, n) in enumerate(ordered) if n.host.reachable],
        [i for i, (_, _, n) in enumerate(ordered) if not n.host.reachable],
    )
    for index, node in enumerate(nodes):
        cap = caps[index % len(caps)]
        picks = []
        bootstrap.sample_table_positions(
            picks, node.host.peer_id.dht_key_int(), tree,
            cap, int(cap * stale_fraction), rng,
        )
        assert all(node.routing_table.add(ids[position]) for position in picks)


def _mixed_world(n, seed):
    """Servers, clients and offline (stale) servers; tables left empty."""
    return build_world(
        n=n, seed=seed, offline_fraction=0.45, client_fraction=0.2, populate=False
    )


@pytest.mark.parametrize("seed", [42, 43, 44])
@pytest.mark.parametrize(
    "n, stale_fraction, bucket_size",
    [
        (60, 0.05, 20), (400, 0.05, 20), (1500, 0.05, 20),
        # the kernel's other parameters: no stale quota at all, a larger
        # one (the kernel's max_stale), a smaller per-bucket cap
        (400, 0.0, 20), (400, 0.25, 20), (400, 0.05, 8),
        # caps alternating over one tree: it is shared, so a
        # cap-dependent value cached in a node would leak between them
        (400, 0.05, (8, 20)),
    ],
)
def test_bulk_load_equals_the_add_loop(n, stale_fraction, bucket_size, seed):
    expected, actual = _mixed_world(n, seed), _mixed_world(n, seed)
    caps = bucket_size if isinstance(bucket_size, tuple) else (bucket_size,)
    assert [a.host.peer_id for a in actual.nodes] == [e.host.peer_id for e in expected.nodes]
    assert any(not node.server for node in actual.nodes)
    assert any(node.server and not node.host.reachable for node in actual.nodes)

    expected_rng, actual_rng = random.Random(seed), random.Random(seed)
    leftover_draws = _populate_by_add(expected.nodes, expected_rng, caps, stale_fraction)
    if (stale_fraction, caps) == (bootstrap.STALE_FRACTION, (K_BUCKET_SIZE,)):
        populate_routing_tables(actual.nodes, actual_rng)
    else:
        _fill_by_kernel(actual.nodes, actual_rng, caps, stale_fraction)

    assert actual_rng.getstate() == expected_rng.getstate()
    for ours, theirs in zip(actual.nodes, expected.nodes):
        # peers() lists buckets in index order and each bucket in
        # least-recently-seen order, so equal lists mean equal tables
        assert ours.routing_table.peers() == theirs.routing_table.peers()
        assert len(ours.routing_table) == len(theirs.routing_table)
    if n >= 400:
        # the hoisted leftovers filter is on the compared path
        assert leftover_draws > 0


def test_one_tree_per_call_and_one_boundary_bisect_per_node(monkeypatch):
    """Work is counted, not timed: the reference loop bisects the keys
    once per node per bucket; the tree once per trie node, and a second
    call starts from an empty tree (nothing outlives a call)."""
    trees, boundary_bisects = [], []

    class RecordedTree(bootstrap.KeyspaceTree):
        def __init__(self, keys, live, stale):
            super().__init__(keys, live, stale)
            trees.append(self)
            boundary_bisects.append(0)

    def counting_bisect(a, x, lo, hi):
        if a is trees[-1].keys:
            boundary_bisects[-1] += 1
        return bisect.bisect_left(a, x, lo, hi)

    monkeypatch.setattr(bootstrap, "KeyspaceTree", RecordedTree)
    monkeypatch.setattr(bootstrap, "bisect_left", counting_bisect)
    world = _mixed_world(1500, 42)
    servers = sum(node.server for node in world.nodes)
    for seed in (42, 43):
        populate_routing_tables(world.nodes, random.Random(seed))
        for node in world.nodes:
            for peer_id in node.routing_table.peers():
                node.routing_table.remove(peer_id)
    first, second = trees
    assert set(first.nodes) == set(second.nodes)  # a function of the keys alone
    for tree, count in zip(trees, boundary_bisects):
        assert 0 < count <= len(tree.nodes) <= servers / 4


def test_fill_never_calls_add(monkeypatch):
    def no_add(self, peer_id):
        raise AssertionError("populate_routing_tables must fill views")

    monkeypatch.setattr(RoutingTable, "add", no_add)
    world = _mixed_world(120, 7)
    populate_routing_tables(world.nodes, random.Random(7))
    assert all(len(node.routing_table) for node in world.nodes)


def test_non_empty_table_is_refused_and_left_as_it_was():
    world = _mixed_world(80, 5)
    first = world.nodes[0]
    resident = next(n.host.peer_id for n in world.nodes[1:] if n.server)
    assert first.routing_table.add(resident)
    with pytest.raises(SimulationError):
        populate_routing_tables(world.nodes, random.Random(5))
    assert first.routing_table.peers() == [resident]
    assert len(first.routing_table) == 1


def test_hydra_heads_join_the_one_fill():
    """A Hydra arm is a build input: with ``HYDRA_HEADS`` patched for one
    build, the heads follow the vantage into the world's one table fill
    as live servers, each adding its table's entries from the fill's
    row, and they sit in the peers' tables. The patch ends with its
    block, also when the build raises."""
    population = generate_compact_population(
        PopulationConfig(n_peers=300), derive_rng(11, "population")
    )
    config = ScenarioConfig(seed=11, with_churn=False)
    with figures.patched("HYDRA_HEADS", 12):
        world = build_compact_world(population, config, vantage_regions=["eu_central_1"])
    assert compact.HYDRA_HEADS == 0
    heads = world.hydra.heads
    assert len(heads) == 12
    head_ids = {head.host.peer_id for head in heads}
    for j, head in enumerate(heads):
        assert head.server and head.host.reachable
        row = world.table_peer_ids(world.n + 1 + j)  # after the one vantage
        assert len(head.routing_table) == len(row) > 0
        assert set(head.routing_table.peers()) == set(row)
    holding = [
        index for index in range(world.n) if head_ids & set(world.table_peer_ids(index))
    ]
    assert len(holding) > world.n // 10
    assert head_ids & set(world.node_at(holding[0]).routing_table.peers())
    assert head_ids & set(world.vantage["eu_central_1"].dht.routing_table.peers())

    plain = build_compact_world(population, config, vantage_regions=["eu_central_1"])
    assert plain.hydra is None
    assert not any(
        head_ids & set(plain.table_peer_ids(index)) for index in range(plain.n)
    )

    with pytest.raises(KeyError):
        with figures.patched("HYDRA_HEADS", 12):
            build_compact_world(population, config, vantage_regions=["no_such_region"])
    assert compact.HYDRA_HEADS == 0

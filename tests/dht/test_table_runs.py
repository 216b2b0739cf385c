"""A table's bucket runs come from the fill's keyspace walk
(``bootstrap.table_runs``), which reads window sizes and never the
stored entries. The XOR scan of the stored entries they replaced,
``tests.helpers.bucket_runs``, is the reference: over random small
worlds the two agree for every node, on a tree of its own
(``run_tree``, what a compact world grows on its first attach) and on
the fill's tree (what ``populate_routing_tables`` reuses)."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.bootstrap import fill_positions, run_tree, table_runs
from repro.dht.keyspace import KEY_BITS
from repro.dht.routing_table import K_BUCKET_SIZE
from repro.experiments import figures
from repro.experiments.scenario import AWS_REGIONS, ScenarioConfig
from repro.simnet.compact import build_compact_world
from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig
from tests.helpers import bucket_runs


def _keys(rng: random.Random, n: int, prefix_bits: int) -> list[int]:
    """``n`` distinct DHT key ints; about four in five share a random
    ``prefix_bits``-bit prefix, so deep buckets and the tail are met."""
    prefix = rng.getrandbits(prefix_bits) << (KEY_BITS - prefix_bits) if prefix_bits else 0
    keys: list[int] = []
    while len(keys) < n:
        key = rng.getrandbits(KEY_BITS)
        if rng.random() < 0.8:
            key = prefix | key >> prefix_bits
        if key not in keys:
            keys.append(key)
    return keys


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 260),
    seed=st.integers(0, 2**32),
    prefix_bits=st.sampled_from([0, 8, 64, 240, 250]),
    server_share=st.floats(0.0, 1.0),
    stale_share=st.floats(0.0, 1.0),
    max_stale=st.integers(0, 3),
)
def test_walk_runs_equal_the_scan_of_the_fill(
    n, seed, prefix_bits, server_share, stale_share, max_stale
):
    rng = random.Random(seed)
    key_ints = _keys(rng, n, prefix_bits)
    servers = [index for index in range(n) if rng.random() < server_share]
    live = [rng.random() >= stale_share for _ in range(n)]
    _, tree, entries, off = fill_positions(key_ints, servers, live, max_stale, rng)
    own_tree = run_tree(tree.keys)
    for index, own_int in enumerate(key_ints):
        expected = bucket_runs(own_int, tree.keys, entries, off[index], off[index + 1])
        assert table_runs(own_int, own_tree) == expected
        assert table_runs(own_int, tree) == expected
        assert max(expected[len(expected) // 2:], default=0) <= K_BUCKET_SIZE


@settings(max_examples=12, deadline=None)
@given(
    n_peers=st.integers(30, 240),
    seed=st.integers(0, 10**6),
    nat_peers_in_dht=st.booleans(),
    with_churn=st.booleans(),
    max_stale=st.integers(0, 3),
    vantages=st.integers(0, 2),
    heads=st.integers(0, 3),
)
def test_a_compact_world_walks_the_runs_its_fill_stored(
    n_peers, seed, nat_peers_in_dht, with_churn, max_stale, vantages, heads
):
    population = generate_compact_population(
        PopulationConfig(n_peers=n_peers), derive_rng(seed, "population")
    )
    config = ScenarioConfig(
        seed=seed, nat_peers_in_dht=nat_peers_in_dht, with_churn=with_churn
    )
    with figures.patched("STALE_FRACTION", max_stale / K_BUCKET_SIZE), \
            figures.patched("HYDRA_HEADS", heads):
        world = build_compact_world(
            population, config, vantage_regions=list(AWS_REGIONS[:vantages])
        )
    assert world.materialized == 0 and world._run_tree is None
    entries, keys, _ = world._table_view()
    off = world._table_off
    for index in range(world.n):
        expected = bucket_runs(world._own_keys[index], keys, entries, off[index], off[index + 1])
        assert world._runs_at(index) == expected
    # the vantages and heads follow the peers in the one fill
    assert len(off) == world.n + vantages + heads + 1
    assert world.materialized == world.n

"""The compact world's routing-table fill, pinned.

``test_compact_equivalence.py`` compares two worlds that both run
:func:`repro.dht.bootstrap.sample_table_positions`, so a bug in the
shared kernel passes it. The sha256 literals below were recorded at the
commit *before* the per-peer bisect walk was replaced by the per-world
prefix tree: the three table arrays :meth:`CompactWorld._fill_tables`
writes, as fixed-width values (4-byte entries and server order, 8-byte
offsets: the widths they were recorded at, whatever width the world
stores them in), and the position of the shared ``"tables"`` stream
afterwards.
``tests/dht/test_bootstrap.py`` keeps the replaced walk itself as a
reference loop.

Regenerate (only for a PR that means to change the fill) with:

    PYTHONPATH=src python -m tests.simnet.test_table_fill_pins
"""

from __future__ import annotations

import hashlib
from array import array
from unittest import mock

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.simnet import compact as compact_module
from repro.simnet.compact import build_compact_world
from repro.utils.columns import index_typecode
from repro.utils.rng import derive_rng
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig
from tests.helpers import rng_state_sha256

N_PEERS = 3000

#: (seed, nat_peers_in_dht) -> (tables_sha256, rng_state_sha256)
PINNED = {
    (42, False): (
        "b538dfb80d679c08af97fa51a9914313c2ec3d75e1ff2f5b428952c0abc265cb",
        "ebe76aaeb0005994139a3f0271c27fe7ebbbbead67ad28005e76c08f7b2de7ca",
    ),
    (42, True): (
        "9338520b2001b9f396fd3edc78d48fe930b8290e80e0c74d5bd88f691c0af094",
        "21a797e3e0defd392d886a42f7092aa37d3a720c224fafe9fe215e8167832dd3",
    ),
    (43, False): (
        "d4ea6429b432ebaa47de9b1d1f678a8e0a6e17309425a799c9cd1cb160edf45e",
        "15245acf684f2e86cbd39a4f402fab3223ef83ac3e6bf158de439d01df27f0db",
    ),
    (43, True): (
        "8e967beab592691c42f02936334795f553f756f76bf7e0301644d28aaf287934",
        "0da6ba81f23e140ec5c11f9374096142359b8f2765a539a7eabd1441994363c6",
    ),
}


def _fill_digests(seed: int, nat_peers_in_dht: bool) -> tuple[str, str]:
    population = generate_compact_population(
        PopulationConfig(n_peers=N_PEERS), derive_rng(seed, "population")
    )
    tables_rng = []

    def recording(root_seed, *labels):
        rng = derive_rng(root_seed, *labels)
        if labels == ("tables",):
            tables_rng.append(rng)
        return rng

    # build_compact_world owns the "tables" generator; keep a handle on
    # it to read its position after the fill.
    with mock.patch.object(compact_module, "derive_rng", recording):
        world = build_compact_world(
            population, ScenarioConfig(seed=seed, nat_peers_in_dht=nat_peers_in_dht)
        )
    (rng,) = tables_rng
    tables = hashlib.sha256(
        array("i", world._table_entries).tobytes()
        + array("Q", world._table_off).tobytes()
        + array("i", world._server_order).tobytes()
    ).hexdigest()
    return tables, rng_state_sha256(rng)


@pytest.mark.parametrize("seed, nat_peers_in_dht", sorted(PINNED))
def test_table_fill_is_pinned(seed, nat_peers_in_dht):
    assert _fill_digests(seed, nat_peers_in_dht) == PINNED[seed, nat_peers_in_dht]


def test_four_byte_fill_equals_the_two_byte_fill():
    # Past 65 536 servers (the 200 k-peer run has 136 k) the positions
    # take 4 bytes. Forcing that width on a small world must give the
    # same values, bucket runs and answers as its 2-byte fill.
    population = generate_compact_population(
        PopulationConfig(n_peers=600), derive_rng(42, "population")
    )
    config = ScenarioConfig(seed=42)
    narrow = build_compact_world(population, config, vantage_regions=["us_west_1"])
    with mock.patch.object(compact_module, "index_typecode", lambda limit: "I"):
        wide = build_compact_world(population, config, vantage_regions=["us_west_1"])
    assert narrow._table_entries.typecode == index_typecode(len(narrow._server_order)) == "H"
    assert narrow._server_order.typecode == "H"
    assert wide._table_entries.typecode == wide._server_order.typecode == "I"
    for column in ("_table_entries", "_table_off", "_server_order"):
        assert getattr(narrow, column).tolist() == getattr(wide, column).tolist()
    target = derive_rng(42, "target").randbytes(32)
    for index in range(0, narrow.n + 1, 50):
        assert narrow.table_peer_ids(index) == wide.table_peer_ids(index)
        if index < narrow.n:
            assert narrow._runs_at(index) == wide._runs_at(index)
            assert narrow._table_at(index).closest(target) == wide._table_at(index).closest(target)


if __name__ == "__main__":
    for key in sorted(PINNED):
        tables, state = _fill_digests(*key)
        print(f'    {key}: (\n        "{tables}",\n        "{state}",\n    ),')

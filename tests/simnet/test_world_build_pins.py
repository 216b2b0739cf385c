"""What ``build_scenario`` builds, pinned at three shapes.

The sha256 literals below were recorded while ``build_scenario`` still
built one ``SimHost`` / ``DhtNode`` / ``BitswapEngine`` per peer in a
loop, before it became the compact world builder plus vantages. Each
shape pins:

- every host's facts (backdrop peers in peer order, then the
  vantages): online, transports, ``nat_private``, NAT mode, port base
  and live mappings, ``dcutr``, ``dht_server`` and the identity facts;
- every routing table in insertion order, vantages included;
- the bootstrap ids, the relay ids and each boxed host's reservations;
- one simulated hour of churn: events run and every host's online bit.

Regenerate (only for a PR that means to change the world) with:

    PYTHONPATH=src python -m tests.simnet.test_world_build_pins
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.scenario import (
    AWS_REGIONS,
    NatWorldConfig,
    ScenarioConfig,
    build_scenario,
)
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population
from tests.helpers import backdrop_node

#: name -> (n_peers, population rng label, ScenarioConfig fields, vantages)
SHAPES = {
    # the e2e benchmark's pubget world
    "pubget": (2000, "bench-pop", {}, AWS_REGIONS),
    "nat": (400, "population", {"nat_world": NatWorldConfig(punch_adoption=0.5)},
            AWS_REGIONS[:2]),
    "static-clients": (400, "population",
                       {"nat_peers_in_dht": False, "with_churn": False},
                       AWS_REGIONS[:2]),
}

SEED = 42

#: name -> (hosts, tables, ids, churn) sha256
PINNED = {
    "pubget": (
        "24c091fdeff37c55c67b5376b4f3a1954ac128a5ecd206ff87c6ac56c553ee1a",
        "7687a046c71893784ba9b4212027ad364b6a4952c550d589adf91b23a3fb9c27",
        "63f8e30e7b42e727475cfbbd97835565a682623a96d93185b39c97940a9edd6b",
        "d767d79449083bc60f8b149e44b7b86a7eb1178bd26f3f3a8f176bbccb7d69fc",
    ),
    "nat": (
        "2fd99244375d0308d58c9307c064adb9221863a5d1779b86d6576234fcee167e",
        "daee71417d0596d53f9859fccb4f51c4e9431c9ef7b529f467ddc065cf900c19",
        "a974643bafa9b07e77eac0e12c0d38c72dab6f07e2ba1258fdde6697a62f3e09",
        "719454519f8a0ccf0a659375c6d6bea1e6123dda176c9c6d844bd0bfe2611635",
    ),
    "static-clients": (
        "21232166eea8cdda404da6f1ec127ec38d3a53f951e1537948e4caf37f4ffd32",
        "c08e79554dbc061ac8e22cc3d2e2937c08ce7a1594e0477db0395ec6faba6236",
        "6c689366c2e3486429363af64a5179a21b6ed39048354682fd6976578cf3c625",
        "1af8ac524ff4d7ceae694b77d87fe2b5568f346475d9f080a7d476c950a46329",
    ),
}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _host_facts(host) -> list:
    nat = host.nat
    return [
        host.peer_id.to_bytes().hex(), host.region.value, host.peer_class.value,
        host.agent_version, host.online,
        sorted(transport.value for transport in host.transports),
        host.nat_private, host.dcutr, host.dht_server,
        None if nat is None else [
            nat.mode.value, nat._port_base, nat.mapping_ttl_s,
            nat.keepalive_interval_s,
            sum(nat._is_live(mapping, 0.0) for mapping in nat._mappings.values()),
        ],
    ]


def _digests(name: str) -> tuple[str, str, str, str]:
    n_peers, label, fields, vantages = SHAPES[name]
    population = generate_population(
        PopulationConfig(n_peers=n_peers), derive_rng(SEED, label)
    )
    scenario = build_scenario(
        population, ScenarioConfig(seed=SEED, **fields),
        vantage_regions=list(vantages),
    )
    nodes = [backdrop_node(scenario, index) for index in range(n_peers)]
    nodes += [scenario.vantage[region].dht for region in vantages]
    hosts = [node.host for node in nodes]

    dialer = scenario.circuit_dialer
    ids = {
        "bootstrap": [peer_id.to_bytes().hex() for peer_id in scenario.bootstrap_ids],
        "relays": [] if dialer is None
        else [peer_id.to_bytes().hex() for peer_id in dialer.relay_ids()],
        "reservations": [] if dialer is None else [
            [peer_id.to_bytes().hex() for peer_id in dialer.relays_for(host.peer_id)]
            for host in hosts if host.nat is not None
        ],
    }
    facts = _sha([_host_facts(host) for host in hosts])
    tables = _sha([
        [peer_id.to_bytes().hex() for peer_id in node.routing_table.peers()]
        for node in nodes
    ])
    scenario.sim.run(until=3600.0)
    churn = _sha([
        scenario.sim.events_processed,
        "".join("1" if host.online else "0" for host in hosts),
    ])
    return facts, tables, _sha(ids), churn


@pytest.mark.parametrize("name", sorted(PINNED))
def test_world_build_is_pinned(name):
    assert _digests(name) == PINNED[name]


if __name__ == "__main__":
    for name in PINNED:
        print(f'    "{name}": (')
        for digest in _digests(name):
            print(f'        "{digest}",')
        print("    ),")

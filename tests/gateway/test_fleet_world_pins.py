"""The fleet world's nodes and routing tables, pinned.

The replay's ``fleet`` backend and the flash-crowd cells each build
their world with :func:`repro.gateway.fleet.build_fleet_world` — a
publisher, the gateway nodes, a DHT backdrop, every table filled by
:func:`~repro.dht.bootstrap.populate_routing_tables` over the world's
own stream. The sha256 literals below were recorded from the two
separate builders the cells had before they shared one, captured where
each handed its nodes to the fill. They hash each node in fill order
(its PeerId, region and peer class) and its routing table in table
order: bucket sizes, then every entry bucket by bucket. CI runs this
file under several ``PYTHONHASHSEED`` values, because the fill keeps
sets.

Regenerate (only for a change that means to move a fleet world) with:

    PYTHONPATH=src python -m tests.gateway.test_fleet_world_pins
"""

from __future__ import annotations

import hashlib
from array import array
from unittest import mock

import pytest

from repro.experiments import flash_crowd
from repro.experiments.flash_crowd import FlashCrowdConfig
from repro.gateway import replay
from repro.gateway.fleet import build_fleet_world
from repro.gateway.replay import FLEET_BACKDROP, FLEET_GATEWAYS
from repro.simnet.latency import PeerClass, Region

#: world -> sha256 of its nodes and filled tables
PINNED = {
    "replay-window-0": "448520d743ba31ebd7efac6b8d3bb597a5c2fa7fc81c2a65f2c96e7ee2f4afe5",
    "flash-nft_drop": "2c0a6a6c64f7584b2fe2959cb3defd1d603f80fec4583e0b951a09a795b3f466",
}


def world_sha256(dhts) -> str:
    digest = hashlib.sha256()
    for dht in dhts:
        host = dht.host
        table = dht.routing_table
        digest.update(
            f"{host.peer_id}|{host.region.value}|{host.peer_class.value}|"
            f"{sorted(table.bucket_sizes().items())}\n".encode("ascii")
        )
        digest.update((",".join(map(str, table.peers())) + "\n").encode("ascii"))
    return digest.hexdigest()


_FLASH = FlashCrowdConfig(seed=42)

#: world -> the cell's builder arguments: the replay's window 0 and the
#: flash crowd's ``nft_drop`` storm, both at seed 42.
WORLDS = {
    "replay-window-0": (
        42, "replay", "0", Region.NA_WEST, PeerClass.DATACENTER,
        FLEET_GATEWAYS, FLEET_BACKDROP,
    ),
    "flash-nft_drop": (
        42, "flash", "nft_drop", Region.EU, PeerClass.HOME,
        _FLASH.n_gateways, _FLASH.n_backdrop,
    ),
}


def _world_sha256(name: str) -> str:
    _, publisher, gateways, backdrop = build_fleet_world(*WORLDS[name])
    return world_sha256([node.dht for node in [publisher, *gateways, *backdrop]])


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fleet_world_is_pinned(name):
    assert _world_sha256(name) == PINNED[name]


class _Built(Exception):
    """Stops a cell once it has asked for its world."""


def _cell_world_args(module, run) -> tuple:
    calls = []

    def record(*args):
        calls.append(args)
        raise _Built

    with mock.patch.object(module, "build_fleet_world", record):
        with pytest.raises(_Built):
            run()
    return calls[0]


def test_the_cells_build_the_pinned_worlds():
    no_misses = array("q")
    assert _cell_world_args(
        replay, lambda: replay._fleet_cell(42, 0, 0.0, array("d"), no_misses, no_misses)
    ) == WORLDS["replay-window-0"]
    assert _cell_world_args(
        flash_crowd, lambda: flash_crowd._run_cell(_FLASH, "nft_drop", "stock")
    ) == WORLDS["flash-nft_drop"]


if __name__ == "__main__":
    for name in sorted(PINNED):
        print(f"    {name!r}: {_world_sha256(name)!r},")

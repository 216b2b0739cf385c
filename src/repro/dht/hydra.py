"""Hydra boosters (the paper's Section 8 names them as future study).

A Hydra booster is one well-provisioned host that operates *many*
DHT-server identities ("heads") spread uniformly over the keyspace.
Because every lookup converges towards the target key, a booster with
enough heads sits within the final hops of most walks and can answer
from its shared, head-spanning record store — cutting lookup latency
and improving record availability.

Our implementation mirrors the libp2p hydra-booster: heads are full
DHT servers sharing one provider-record store (the "shared datastore"),
all hosted on a single datacenter-class machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.dht.dht_node import DhtNode
from repro.dht.provider_store import PeerRecordStore, ProviderStore
from repro.multiformats.peerid import PeerId
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator


@dataclass
class HydraBooster:
    """A multi-headed DHT presence with a shared record store."""

    sim: Simulator
    network: SimNetwork
    region: Region = Region.NA_EAST
    heads: list[DhtNode] = field(default_factory=list)
    shared_providers: ProviderStore = field(default_factory=ProviderStore)
    shared_peer_records: PeerRecordStore = field(default_factory=PeerRecordStore)

    def spawn_heads(self, count: int, rng: random.Random, name: str = "hydra") -> None:
        """Create ``count`` head identities, all backed by the shared
        stores and hosted in this booster's region."""
        for index in range(len(self.heads), len(self.heads) + count):
            peer_id = PeerId.from_public_key(
                b"%s-head-%d" % (name.encode(), index)
            )
            host = SimHost(
                peer_id, region=self.region, peer_class=PeerClass.DATACENTER
            )
            self.network.register(host)
            head = DhtNode(self.sim, self.network, host, rng, server=True)
            # All heads answer from the one datastore.
            head.provider_store = self.shared_providers
            head.peer_record_store = self.shared_peer_records
            self.heads.append(head)

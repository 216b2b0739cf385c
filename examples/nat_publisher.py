#!/usr/bin/env python3
"""Scenario: publishing from behind a NAT.

Section 3.1: "peers behind NATs cannot host content themselves. Thus,
third party hosts, commonly called pinning services, are used to
publish content on behalf of NAT'ed end-users (usually for a fee).
Although a NAT hole-punching solution is currently being developed, it
is still under-test."

This example walks through all three answers to the NAT problem:

1. the NAT'ed node is confirmed a DHT *client* by AutoNAT;
2. it publishes through a **pinning service** (and gets a bill);
3. it becomes reachable anyway via a **circuit relay**, and a reader
   upgrades the relayed connection with **DCUtR hole punching**.

Run:  python examples/nat_publisher.py
"""

from repro.dht.bootstrap import populate_routing_tables
from repro.node.host import IpfsNode
from repro.node.pinning_service import PinningService
from repro.simnet.latency import PeerClass, Region
from repro.simnet.nat import (
    DEFAULT_KEEPALIVE_INTERVAL_S,
    NatBox,
    NatMode,
    autonat_check,
    seed_keepalive_mapping,
)
from repro.simnet.network import SimNetwork
from repro.simnet.relay import CircuitDialer
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng


def main() -> None:
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(55, "net"))
    rng = derive_rng(55, "world")

    # The protagonist: a home node behind a port-restricted cone NAT.
    nat = NatBox(NatMode.PORT_RESTRICTED,
                 keepalive_interval_s=DEFAULT_KEEPALIVE_INTERVAL_S)
    author = IpfsNode(sim, net, derive_rng(55, "author"), region=Region.EU,
                      peer_class=PeerClass.HOME, nat=nat)
    reader = IpfsNode(sim, net, derive_rng(55, "reader"), region=Region.NA_WEST)
    service_node = IpfsNode(sim, net, derive_rng(55, "svc"),
                            region=Region.NA_EAST)
    relay_node = IpfsNode(sim, net, derive_rng(55, "relay"), region=Region.EU)
    # Its long-lived connection to the relay holds one mapping open.
    seed_keepalive_mapping(author.host, relay_node.peer_id)
    backdrop = [
        IpfsNode(sim, net, derive_rng(55, "bg", str(i)),
                 region=rng.choice(list(Region)))
        for i in range(60)
    ]
    populate_routing_tables(
        [n.dht for n in [author, reader, service_node, relay_node, *backdrop]],
        rng,
    )

    # 1. AutoNAT: the author asks peers to dial back; its box filters
    #    every stranger, so no more than three land and it stays a DHT
    #    client (Section 2.3).
    candidates = [node.peer_id for node in backdrop[:8]]
    reachable = sim.run_process(autonat_check(net, author.host, candidates))
    print(f"AutoNAT verdict: publicly reachable = {reachable} "
          f"-> DHT {'server' if reachable else 'client'}")

    # 2. Publish through a pinning service.
    service = PinningService(service_node)
    manuscript = derive_rng(55, "book").randbytes(1_200_000)

    def pin_it():
        yield from service.node.publish_peer_record()
        return (yield from service.pin_bytes(author, manuscript))

    result = sim.run_process(pin_it())
    print(f"\npinned {result.size:,} bytes as {str(result.cid)[:20]}…")
    print(f"  upload over home uplink : {result.upload_duration:6.2f} s")
    print(f"  provider records stored : {result.publish_receipt.peers_stored}")

    def fetch_via_service():
        reader.disconnect_all()
        data, receipt = yield from reader.retrieve_bytes(result.cid)
        return data == manuscript, receipt

    ok, receipt = sim.run_process(fetch_via_service())
    print(f"  reader fetched it in {receipt.total_duration:.2f} s from the "
          f"service (content intact: {ok})")
    sim.run(until=sim.now + 30 * 24 * 3600)  # a month passes
    print(f"  the author's bill after a month: "
          f"{service.invoice(author.peer_id):.6f} credits")

    # 3. Direct service without a middleman: circuit relay + DCUtR.
    dialer = CircuitDialer(net)
    dialer.enable_relay(relay_node.host)
    dialer.reserve(author.host, relay_node.peer_id)
    print(f"\nauthor reserved a slot at relay {str(relay_node.peer_id)[:12]}…")

    def relay_then_punch():
        connection = yield from dialer.dial(reader.host, author.peer_id)
        relayed_rtt = connection.rtt_s
        upgraded = yield from dialer.hole_punch(reader.host, author.peer_id)
        direct_rtt = reader.host.connections[author.peer_id].rtt_s
        return relayed_rtt, upgraded, direct_rtt

    relayed_rtt, upgraded, direct_rtt = sim.run_process(relay_then_punch())
    print(f"  relayed connection RTT : {relayed_rtt * 1000:6.1f} ms")
    print(f"  DCUtR hole punch       : {'upgraded!' if upgraded else 'failed'}")
    if upgraded:
        print(f"  direct connection RTT  : {direct_rtt * 1000:6.1f} ms "
              f"({relayed_rtt / direct_rtt:.1f}x faster than the relay)")

    # With a live connection, the reader can now Bitswap directly from
    # the NAT'ed author — no DHT, no service.
    fresh = author.add_bytes(b"a signed postcard, straight from the author")

    def direct_fetch():
        data, receipt = yield from reader.retrieve_bytes(fresh.root)
        return data, receipt

    data, receipt = sim.run_process(direct_fetch())
    print(f"\ndirect fetch from the NAT'ed author: {data.decode()!r} "
          f"(via_bitswap={receipt.via_bitswap}, "
          f"{receipt.total_duration:.2f} s)")


if __name__ == "__main__":
    main()

"""Tests for circuit relaying and DCUtR hole punching.

The NatBox compatibility matrix of the punch lives in
``test_nat_model.py``; this file covers the relay plumbing and the
punch's boxless endpoints.
"""

import pytest

from repro.errors import DialError
from repro.multiformats.peerid import PeerId
from repro.simnet.latency import Region
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.nat import NatBox, NatMode, seed_keepalive_mapping
from repro.simnet.relay import CircuitDialer
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng


def make_world(seed=1):
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))
    dialer = CircuitDialer(net)
    relay = SimHost(PeerId.from_public_key(b"relay"), region=Region.EU)
    public = SimHost(PeerId.from_public_key(b"public"), region=Region.NA_WEST)
    natted = SimHost(
        PeerId.from_public_key(b"natted"), region=Region.ASIA_EAST, nat_private=True
    )
    for host in (relay, public, natted):
        net.register(host)
    return sim, net, dialer, relay, public, natted


class TestReservations:
    def test_reserve_with_relay(self):
        sim, net, dialer, relay, public, natted = make_world()
        dialer.enable_relay(relay)
        assert dialer.reserve(natted, relay.peer_id)
        assert dialer.relays_for(natted.peer_id) == [relay.peer_id]

    def test_nat_host_cannot_relay(self):
        sim, net, dialer, relay, public, natted = make_world()
        with pytest.raises(DialError):
            dialer.enable_relay(natted)

    def test_reservation_capacity(self):
        sim, net, dialer, relay, public, natted = make_world()
        dialer.enable_relay(relay, capacity=1)
        assert dialer.reserve(natted, relay.peer_id)
        other = SimHost(PeerId.from_public_key(b"other"), nat_private=True)
        net.register(other)
        assert not dialer.reserve(other, relay.peer_id)

    def test_reserve_at_non_relay_rejected(self):
        sim, net, dialer, relay, public, natted = make_world()
        with pytest.raises(DialError):
            dialer.reserve(natted, public.peer_id)


class TestCircuitDial:
    def test_direct_dial_when_reachable(self):
        sim, net, dialer, relay, public, natted = make_world()

        def proc():
            return (yield from dialer.dial(public, relay.peer_id))

        connection = sim.run_process(proc())
        assert connection.relay is None

    def test_nat_peer_reachable_through_relay(self):
        sim, net, dialer, relay, public, natted = make_world()
        dialer.enable_relay(relay)
        dialer.reserve(natted, relay.peer_id)

        def proc():
            return (yield from dialer.dial(public, natted.peer_id))

        connection = sim.run_process(proc())
        assert connection.relay == relay.peer_id
        assert public.is_connected(natted.peer_id)
        assert natted.is_connected(public.peer_id)

    def test_nat_peer_without_reservation_unreachable(self):
        sim, net, dialer, relay, public, natted = make_world()

        def proc():
            try:
                yield from dialer.dial(public, natted.peer_id)
            except DialError:
                return "failed"

        assert sim.run_process(proc()) == "failed"

    def test_relayed_rpc_pays_both_hops(self):
        sim, net, dialer, relay, public, natted = make_world(seed=2)
        dialer.enable_relay(relay)
        dialer.reserve(natted, relay.peer_id)
        natted.register_handler("PING", lambda s, p: ("pong", 16))

        def relayed():
            yield from dialer.dial(public, natted.peer_id)
            start = sim.now
            yield net.rpc(public, natted.peer_id, "PING", None)
            return sim.now - start

        relayed_rtt = sim.run_process(relayed())
        # Direct NA_WEST<->ASIA_EAST RTT ~0.11s; via an EU relay the
        # path is NA_WEST->EU->ASIA_EAST (~0.36 s round trip).
        assert relayed_rtt > 0.25

    def test_offline_relay_skipped(self):
        sim, net, dialer, relay, public, natted = make_world()
        dialer.enable_relay(relay)
        dialer.reserve(natted, relay.peer_id)
        relay.set_online(False)

        def proc():
            try:
                yield from dialer.dial(public, natted.peer_id)
            except DialError:
                return "failed"

        assert sim.run_process(proc()) == "failed"


class TestHolePunch:
    def _relayed(self, box: NatMode | None = None):
        sim, net, dialer, relay, public, natted = make_world()
        if box is not None:
            natted.nat_private = False
            natted.nat = NatBox(box)
            seed_keepalive_mapping(natted, relay.peer_id)
        dialer.enable_relay(relay)
        dialer.reserve(natted, relay.peer_id)

        def connect():
            return (yield from dialer.dial(public, natted.peer_id))

        assert sim.run_process(connect()).relay == relay.peer_id
        return sim, dialer, public, natted

    def punch(self, sim, dialer, public, natted):
        def proc():
            return (yield from dialer.hole_punch(public, natted.peer_id))

        return sim.run_process(proc())

    def test_punch_requires_relayed_connection(self):
        sim, net, dialer, relay, public, natted = make_world()

        def proc():
            try:
                yield from dialer.hole_punch(public, natted.peer_id)
            except DialError:
                return "failed"

        assert sim.run_process(proc()) == "failed"

    def test_successful_punch_upgrades_connection(self):
        sim, dialer, public, natted = self._relayed(NatMode.PORT_RESTRICTED)
        assert self.punch(sim, dialer, public, natted) is True
        assert public.connections[natted.peer_id].relay is None
        assert natted.connections[public.peer_id].relay is None

    def test_failed_punch_keeps_relayed_connection(self):
        """A boxless ``nat_private`` host admits no punch, like it admits
        no dial: its relayed connection is never upgraded."""
        sim, dialer, public, natted = self._relayed()
        relay_id = public.connections[natted.peer_id].relay
        for _ in range(3):
            assert self.punch(sim, dialer, public, natted) is False
        assert public.connections[natted.peer_id].relay == relay_id
        assert natted.connections[public.peer_id].relay == relay_id
        assert dialer.punches_attempted == 3
        assert dialer.punches_succeeded == 0

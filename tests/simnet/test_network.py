"""Tests for hosts, dialing, RPC delivery and failure semantics."""

import pytest

from repro.errors import DialError, SimulationError, TransportTimeoutError
from repro.multiformats.peerid import PeerId
from repro.simnet.latency import LatencyModel, PeerClass, Region
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator, with_timeout
from repro.simnet.transport import Transport
from repro.utils.rng import derive_rng


def make_net(seed=1):
    sim = Simulator()
    return sim, SimNetwork(sim, derive_rng(seed, "net"))


def make_host(name: bytes, **kwargs) -> SimHost:
    return SimHost(PeerId.from_public_key(name), **kwargs)


class TestDial:
    def test_successful_dial_creates_bidirectional_connection(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)

        def proc():
            conn = yield net.dial(a, b.peer_id)
            return conn

        conn = sim.run_process(proc())
        assert conn.remote == b.peer_id
        assert a.is_connected(b.peer_id)
        assert b.is_connected(a.peer_id)

    def test_dial_takes_handshake_time(self):
        sim, net = make_net()
        a = make_host(b"a", region=Region.EU)
        b = make_host(b"b", region=Region.OCEANIA)
        net.register(a)
        net.register(b)

        def proc():
            yield net.dial(a, b.peer_id)
            return sim.now

        elapsed = sim.run_process(proc())
        # EU<->Oceania RTT is 280 ms; QUIC needs 1.5 round trips.
        assert 0.2 < elapsed < 1.5

    def test_dial_to_offline_peer_times_out_at_5s(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b", online=False)
        net.register(a)
        net.register(b)

        def proc():
            try:
                yield net.dial(a, b.peer_id)
            except TransportTimeoutError:
                return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_dial_timeout_names_its_target_only_when_read(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b", online=False)
        net.register(a)
        net.register(b)
        future = net.dial(a, b.peer_id)
        sim.run(until=60.0)
        error = future.exception()
        assert isinstance(error, TransportTimeoutError)
        assert b.peer_id._b58 is None, "the failure spelled its target"
        transport = error.transport.value
        assert str(error) == f"dial to {b.peer_id} timed out after 5.0s ({transport})"

    def test_dial_to_nat_peer_times_out(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b", nat_private=True)
        net.register(a)
        net.register(b)

        def proc():
            try:
                yield net.dial(a, b.peer_id)
            except TransportTimeoutError:
                return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_websocket_only_peer_times_out_at_45s(self):
        sim, net = make_net()
        a = make_host(b"a", transports=frozenset({Transport.WEBSOCKET}))
        b = make_host(
            b"b", online=False, transports=frozenset({Transport.WEBSOCKET})
        )
        net.register(a)
        net.register(b)

        def proc():
            try:
                yield net.dial(a, b.peer_id)
            except TransportTimeoutError:
                return sim.now

        assert sim.run_process(proc()) == 45.0

    def test_no_shared_transport_fails_fast(self):
        sim, net = make_net()
        a = make_host(b"a", transports=frozenset({Transport.QUIC}))
        b = make_host(b"b", transports=frozenset({Transport.WEBSOCKET}))
        net.register(a)
        net.register(b)

        def proc():
            try:
                yield net.dial(a, b.peer_id)
            except DialError:
                return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_dial_reuses_existing_connection(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)

        def proc():
            yield net.dial(a, b.peer_id)
            first = sim.now
            yield net.dial(a, b.peer_id)
            return first, sim.now

        first, second = sim.run_process(proc())
        assert first == second
        assert net.stats.dials_attempted == 1

    def test_offline_dialer_fails(self):
        sim, net = make_net()
        a, b = make_host(b"a", online=False), make_host(b"b")
        net.register(a)
        net.register(b)
        future = net.dial(a, b.peer_id)
        assert future.failed

    def test_unknown_peer_times_out(self):
        sim, net = make_net()
        a = make_host(b"a")
        net.register(a)

        def proc():
            try:
                yield net.dial(a, PeerId.from_public_key(b"ghost"))
            except TransportTimeoutError:
                return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_target_churning_mid_handshake_fails_dial(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        sim.schedule(0.01, lambda: b.set_online(False))

        def proc():
            try:
                yield net.dial(a, b.peer_id)
            except DialError:
                return "failed"

        assert sim.run_process(proc()) == "failed"


class TestRpc:
    def test_request_response(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        b.register_handler("ECHO", lambda sender, payload: (payload * 2, 64))

        def proc():
            response = yield net.rpc(a, b.peer_id, "ECHO", 21)
            return response

        assert sim.run_process(proc()) == 42

    def test_handler_sees_sender(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        b.register_handler("WHO", lambda sender, payload: (sender, 64))

        def proc():
            return (yield net.rpc(a, b.peer_id, "WHO", None))

        assert sim.run_process(proc()) == a.peer_id

    def test_rpc_auto_dials(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        b.register_handler("PING", lambda sender, payload: ("pong", 16))

        def proc():
            return (yield net.rpc(a, b.peer_id, "PING", None))

        assert sim.run_process(proc()) == "pong"
        assert a.is_connected(b.peer_id)

    def test_rpc_without_autodial_requires_connection(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        future = net.rpc(a, b.peer_id, "PING", None, auto_dial=False)
        assert future.failed

    def test_rpc_to_peer_that_churns_offline_never_settles(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        b.register_handler("SLOWPING", lambda sender, payload: ("pong", 16))

        def proc():
            yield net.dial(a, b.peer_id)
            b.set_online(False)
            from repro.simnet.sim import TimeoutError_

            try:
                yield with_timeout(sim, net.rpc(a, b.peer_id, "SLOWPING", None), 10.0)
            except (TimeoutError_, TransportTimeoutError):
                return "timed out"

        assert sim.run_process(proc()) == "timed out"

    def test_large_response_pays_bandwidth(self):
        sim, net = make_net(seed=3)
        a = make_host(b"a", peer_class=PeerClass.DATACENTER)
        b = make_host(b"b", peer_class=PeerClass.HOME)
        net.register(a)
        net.register(b)
        b.register_handler("SMALL", lambda s, p: ("x", 100))
        b.register_handler("BLOCK", lambda s, p: ("x" * 100, 500_000))

        def timed(method):
            def proc():
                yield net.dial(a, b.peer_id)
                start = sim.now
                yield net.rpc(a, b.peer_id, method, None)
                return sim.now - start

            return proc

        small = sim.run_process(timed("SMALL")())
        large = sim.run_process(timed("BLOCK")())
        # 500 kB over a 2.5 MB/s home uplink adds ~0.2 s.
        assert large > small + 0.1

    def test_handler_exception_fails_future(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)

        def broken(sender, payload):
            raise ValueError("handler bug")

        b.register_handler("BROKEN", broken)

        def proc():
            try:
                yield net.rpc(a, b.peer_id, "BROKEN", None)
            except ValueError:
                return "failed"

        assert sim.run_process(proc()) == "failed"

    def test_missing_handler_is_a_simulation_error(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        net.rpc(a, b.peer_id, "NOPE", None)
        with pytest.raises(SimulationError):
            sim.run()


class TestHostLifecycle:
    def test_going_offline_drops_connections(self):
        sim, net = make_net()
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)
        sim.run_process(net_dial(sim, net, a, b))
        b.set_online(False)
        assert not a.is_connected(b.peer_id)
        assert not b.is_connected(a.peer_id)

    def test_status_observers_notified(self):
        host = make_host(b"a")
        seen = []
        host.on_status_change.append(seen.append)
        host.set_online(False)
        host.set_online(False)  # no duplicate event
        host.set_online(True)
        assert seen == [False, True]

    def test_connected_peers_listing(self):
        sim, net = make_net()
        a, b, c = make_host(b"a"), make_host(b"b"), make_host(b"c")
        for host in (a, b, c):
            net.register(host)
        sim.run_process(net_dial(sim, net, a, b))
        sim.run_process(net_dial(sim, net, a, c))
        assert set(a.connected_peers()) == {b.peer_id, c.peer_id}

    def test_duplicate_registration_rejected(self):
        sim, net = make_net()
        a = make_host(b"a")
        net.register(a)
        with pytest.raises(SimulationError):
            net.register(a)

    def test_duplicate_handler_rejected(self):
        host = make_host(b"a")
        host.register_handler("X", lambda s, p: (None, 0))
        with pytest.raises(SimulationError):
            host.register_handler("X", lambda s, p: (None, 0))


def net_dial(sim, net, src, dst):
    def proc():
        yield net.dial(src, dst.peer_id)

    return proc()


class TestLatencyModel:
    def test_intra_region_faster_than_inter(self):
        model = LatencyModel(jitter=(1.0, 1.0))
        rng = derive_rng(1, "lat")
        local = model.one_way(
            Region.EU, PeerClass.DATACENTER, Region.EU, PeerClass.DATACENTER, rng
        )
        far = model.one_way(
            Region.EU, PeerClass.DATACENTER, Region.OCEANIA, PeerClass.DATACENTER, rng
        )
        assert local < far

    def test_symmetry_of_base_rtt(self):
        model = LatencyModel()
        assert model.base_rtt_s(Region.EU, Region.SA) == model.base_rtt_s(
            Region.SA, Region.EU
        )

    def test_peer_class_adds_access_latency(self):
        model = LatencyModel(jitter=(1.0, 1.0))
        rng = derive_rng(1, "lat")
        dc = model.one_way(
            Region.EU, PeerClass.DATACENTER, Region.EU, PeerClass.DATACENTER, rng
        )
        slow = model.one_way(Region.EU, PeerClass.SLOW, Region.EU, PeerClass.SLOW, rng)
        assert slow > dc

    def test_transfer_time_bottleneck(self):
        model = LatencyModel(jitter=(1.0, 1.0))
        rng = derive_rng(1, "bw")
        fast = model.transfer_time(1_000_000, PeerClass.DATACENTER, PeerClass.DATACENTER, rng)
        slow = model.transfer_time(1_000_000, PeerClass.DATACENTER, PeerClass.SLOW, rng)
        assert slow > fast * 10

    def test_processing_delay_ranges(self):
        model = LatencyModel()
        rng = derive_rng(1, "proc")
        for _ in range(50):
            assert model.processing_delay(PeerClass.DATACENTER, rng) < 0.01
            assert model.processing_delay(PeerClass.SLOW, rng) >= 0.15

"""Tests for the NAT mapping state machine and emergent dialability.

Covers the :class:`NatBox` modes (STUN taxonomy), AutoNAT dial-back
classification against ground truth, the deterministic DCUtR
compatibility matrix, the traversal dial chain (direct -> relay -> hole
punch), the fault-injection regressions (partitions must sever relay
reservations and in-flight hole-punch coordination), and a guard that
the NAT layer keeps one model of each mechanism.
"""

import inspect

import pytest

from repro.errors import PartitionError
from repro.multiformats.peerid import PeerId
from repro.simnet.faults import FaultInjector, FaultKind, FaultPlan, FaultRule
from repro.simnet.latency import Region
from repro.simnet.nat import (
    AUTONAT_THRESHOLD,
    NatBox,
    NatMode,
    autonat_check,
    seed_keepalive_mapping,
)
from repro.simnet import nat as nat_module
from repro.simnet import relay as relay_module
from repro.simnet.network import DEFAULT_LISTEN_PORT, SimHost, SimNetwork
from repro.simnet.relay import CircuitDialer, NatTraversal, RelayService, cold_dialable
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng


def pid(name: bytes) -> PeerId:
    return PeerId.from_public_key(name)


PEER_A = pid(b"peer-a")
PEER_B = pid(b"peer-b")


class TestNatBox:
    def test_public_mode_has_no_box(self):
        with pytest.raises(ValueError):
            NatBox(NatMode.PUBLIC)

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            NatBox(NatMode.FULL_CONE, mapping_ttl_s=0.0)

    def test_cone_reuses_one_wan_port(self):
        box = NatBox(NatMode.FULL_CONE, port_base=5000)
        port_a = box.map_outbound(PEER_A, 4001, now=0.0)
        port_b = box.map_outbound(PEER_B, 4001, now=1.0)
        assert port_a == port_b == 5000

    def test_symmetric_allocates_per_destination(self):
        box = NatBox(NatMode.SYMMETRIC, port_base=5000)
        port_a = box.map_outbound(PEER_A, 4001, now=0.0)
        port_b = box.map_outbound(PEER_B, 4001, now=0.0)
        port_a2 = box.map_outbound(PEER_A, 4001, now=1.0)
        assert port_a != port_b
        assert port_a2 == port_a  # same destination reuses its mapping

    def test_mapping_expires_after_ttl(self):
        box = NatBox(NatMode.FULL_CONE, mapping_ttl_s=10.0)
        box.map_outbound(PEER_A, 4001, now=0.0)
        assert box.has_live_mapping(now=10.0)
        assert box.external_port_toward(PEER_A, 4001, now=10.0) is not None
        assert not box.has_live_mapping(now=10.1)
        assert box.external_port_toward(PEER_A, 4001, now=10.1) is None

    def test_dead_mapping_reports_no_external_port(self):
        box = NatBox(NatMode.FULL_CONE, mapping_ttl_s=10.0)
        box.map_outbound(PEER_A, 4001, now=0.0)
        assert box.external_port_toward(PEER_A, 4001, now=5.0) is not None
        assert box.external_port_toward(PEER_A, 4001, now=20.0) is None
        assert box.external_port_toward(PEER_B, 4001, now=5.0) is None

    def test_outbound_refreshes_mapping(self):
        box = NatBox(NatMode.FULL_CONE, mapping_ttl_s=10.0)
        box.map_outbound(PEER_A, 4001, now=0.0)
        box.map_outbound(PEER_A, 4001, now=8.0)
        assert box.has_live_mapping(now=17.0)

    def test_virtual_keepalive_holds_mapping_open(self):
        box = NatBox(
            NatMode.FULL_CONE, mapping_ttl_s=120.0, keepalive_interval_s=60.0
        )
        box.map_outbound(PEER_A, 4001, now=0.0)
        assert box.has_live_mapping(now=10_000.0)

    def test_short_ttl_opens_dead_windows(self):
        # TTL below the keepalive interval: alive just after each tick,
        # dead in between.
        box = NatBox(
            NatMode.FULL_CONE, mapping_ttl_s=30.0, keepalive_interval_s=60.0
        )
        box.map_outbound(PEER_A, 4001, now=0.0)
        assert box.has_live_mapping(now=25.0)
        assert not box.has_live_mapping(now=45.0)  # between keepalives
        assert box.has_live_mapping(now=65.0)  # just after the tick

    def test_lapsed_cone_rebinds_on_fresh_port(self):
        box = NatBox(NatMode.FULL_CONE, mapping_ttl_s=10.0, port_base=5000)
        first = box.map_outbound(PEER_A, 4001, now=0.0)
        second = box.map_outbound(PEER_A, 4001, now=100.0)
        assert first == 5000
        assert second != first  # the stale advertised address went dark

    def test_full_cone_admits_stranger_only_while_live(self):
        box = NatBox(NatMode.FULL_CONE, mapping_ttl_s=10.0)
        assert not box.admits_stranger(now=0.0)
        box.map_outbound(PEER_A, 4001, now=0.0)
        assert box.admits_stranger(now=5.0)
        assert not box.admits_stranger(now=20.0)

    def test_restricted_modes_never_admit_strangers(self):
        for mode in (
            NatMode.ADDRESS_RESTRICTED,
            NatMode.PORT_RESTRICTED,
            NatMode.SYMMETRIC,
        ):
            box = NatBox(mode)
            box.map_outbound(PEER_A, 4001, now=0.0)
            assert not box.admits_stranger(now=0.0)

    def test_address_restricted_admits_any_port_of_known_peer(self):
        box = NatBox(NatMode.ADDRESS_RESTRICTED)
        box.map_outbound(PEER_A, 4001, now=0.0)
        assert box.allows_inbound(PEER_A, 9999, now=1.0)
        assert not box.allows_inbound(PEER_B, 4001, now=1.0)

    def test_port_restricted_needs_exact_endpoint(self):
        box = NatBox(NatMode.PORT_RESTRICTED)
        box.map_outbound(PEER_A, 4001, now=0.0)
        assert box.allows_inbound(PEER_A, 4001, now=1.0)
        assert not box.allows_inbound(PEER_A, 4002, now=1.0)

    def test_deterministic_port_allocation(self):
        """Two boxes built alike replay the identical port sequence —
        no RNG anywhere in the state machine."""
        flows = [(PEER_A, 4001), (PEER_B, 4001), (PEER_A, 8080)]
        boxes = [NatBox(NatMode.SYMMETRIC, port_base=7000) for _ in range(2)]
        sequences = [
            [box.map_outbound(peer, port, now=i) for i, (peer, port) in
             enumerate(flows)]
            for box in boxes
        ]
        assert sequences[0] == sequences[1]


def make_world(seed=1):
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))
    helper_hosts = []
    for index in range(5):
        helper = SimHost(pid(b"helper%d" % index), region=Region.EU)
        net.register(helper)
        helper_hosts.append(helper)
    return sim, net, helper_hosts


def boxed_host(net, name: bytes, mode: NatMode, **box_kwargs) -> SimHost:
    host = SimHost(pid(name), region=Region.NA_WEST)
    host.nat = NatBox(mode, **box_kwargs)
    net.register(host)
    return host


class TestAutoNatEmergent:
    def classify(self, sim, net, host, helpers):
        return sim.run_process(
            autonat_check(net, host, [h.peer_id for h in helpers])
        )

    def test_public_host_classifies_public(self):
        sim, net, helpers = make_world()
        host = SimHost(pid(b"subject"), region=Region.NA_WEST)
        net.register(host)
        assert self.classify(sim, net, host, helpers) is True

    def test_full_cone_with_keepalive_classifies_public(self):
        sim, net, helpers = make_world()
        host = boxed_host(net, b"subject", NatMode.FULL_CONE)
        seed_keepalive_mapping(host, helpers[0].peer_id)
        assert self.classify(sim, net, host, helpers) is True

    def test_port_restricted_classifies_private_despite_mappings(self):
        """The observer-endpoint guard: even when the subject holds
        mappings toward every helper, dial-backs arrive from fresh
        endpoints and a restricted cone filters them."""
        sim, net, helpers = make_world()
        host = boxed_host(net, b"subject", NatMode.PORT_RESTRICTED)
        for helper in helpers:
            host.nat.map_outbound(helper.peer_id, DEFAULT_LISTEN_PORT, sim.now)
        assert self.classify(sim, net, host, helpers) is False

    def test_verdicts_match_ground_truth(self):
        sim, net, helpers = make_world()
        subjects = {
            NatMode.FULL_CONE: boxed_host(net, b"fc", NatMode.FULL_CONE),
            NatMode.SYMMETRIC: boxed_host(net, b"sym", NatMode.SYMMETRIC),
        }
        for host in subjects.values():
            seed_keepalive_mapping(host, helpers[0].peer_id)
        for host in subjects.values():
            verdict = self.classify(sim, net, host, helpers)
            assert verdict == cold_dialable(host, sim.now)
        assert cold_dialable(subjects[NatMode.FULL_CONE], sim.now)
        assert not cold_dialable(subjects[NatMode.SYMMETRIC], sim.now)

    def test_threshold_needs_more_than_three_helpers(self):
        sim, net, helpers = make_world()
        host = SimHost(pid(b"subject"), region=Region.NA_WEST)
        net.register(host)
        few = helpers[: AUTONAT_THRESHOLD]  # 3 probes can never exceed 3
        assert self.classify(sim, net, host, few) is False

    def test_own_dial_back_does_not_count(self):
        """A subject listed among its own candidates is skipped: three
        helpers plus itself are still only three dial-backs."""
        sim, net, helpers = make_world()
        host = SimHost(pid(b"subject"), region=Region.NA_WEST)
        net.register(host)
        candidates = [*helpers[:AUTONAT_THRESHOLD], host]
        assert self.classify(sim, net, host, candidates) is False


def punch_world(src_mode, dst_mode, seed=1):
    """A relay plus two (possibly boxed) endpoints with reservations,
    already connected through the relay and ready to punch."""
    sim = Simulator()
    net = SimNetwork(sim, derive_rng(seed, "net"))
    dialer = CircuitDialer(net)
    relay = SimHost(pid(b"relay"), region=Region.EU)
    net.register(relay)
    dialer.enable_relay(relay)

    def endpoint(name, mode, base):
        host = SimHost(pid(name), region=Region.NA_WEST)
        if mode is not NatMode.PUBLIC:
            host.nat = NatBox(mode, port_base=base)
            seed_keepalive_mapping(host, relay.peer_id)
        host.dcutr = True
        net.register(host)
        return host

    src = endpoint(b"src", src_mode, 5000)
    dst = endpoint(b"dst", dst_mode, 6000)
    dialer.reserve(dst, relay.peer_id)
    return sim, net, dialer, relay, src, dst


PUNCH_MATRIX = [
    (NatMode.FULL_CONE, NatMode.FULL_CONE, True),
    (NatMode.PORT_RESTRICTED, NatMode.PORT_RESTRICTED, True),
    (NatMode.ADDRESS_RESTRICTED, NatMode.SYMMETRIC, True),
    (NatMode.PUBLIC, NatMode.PORT_RESTRICTED, True),
    (NatMode.PORT_RESTRICTED, NatMode.SYMMETRIC, False),
    (NatMode.SYMMETRIC, NatMode.SYMMETRIC, False),
]


class TestDeterministicHolePunch:
    @pytest.mark.parametrize("src_mode,dst_mode,expected", PUNCH_MATRIX)
    def test_compatibility_matrix(self, src_mode, dst_mode, expected):
        sim, net, dialer, relay, src, dst = punch_world(src_mode, dst_mode)

        def proc():
            # Force the relay leg (a full-cone target would otherwise be
            # cold-dialable and skip the circuit entirely).
            connection = yield from dialer._dial_through(
                src, relay, dst.peer_id
            )
            assert connection.relay == relay.peer_id
            return (yield from dialer.hole_punch(src, dst.peer_id))

        assert sim.run_process(proc()) is expected
        if expected:
            assert src.connections[dst.peer_id].relay is None
            assert dialer.punches_succeeded == 1
        else:
            # The relayed connection survives a failed punch.
            assert src.connections[dst.peer_id].relay == relay.peer_id
            assert dialer.punches_succeeded == 0

    def test_matrix_is_replay_deterministic(self):
        def outcome(seed):
            sim, net, dialer, relay, src, dst = punch_world(
                NatMode.FULL_CONE, NatMode.PORT_RESTRICTED, seed=seed
            )

            def proc():
                yield from dialer.dial(src, dst.peer_id)
                return (yield from dialer.hole_punch(src, dst.peer_id))

            return sim.run_process(proc())

        # Different network RNG seeds cannot flip a deterministic punch.
        assert outcome(1) is outcome(2) is True


class TestTraversalChain:
    def test_protocol_dial_upgrades_through_relay(self):
        sim, net, dialer, relay, src, dst = punch_world(
            NatMode.PUBLIC, NatMode.PORT_RESTRICTED
        )
        net.install_traversal(NatTraversal(net, dialer))
        traversal = net.traversal

        def proc():
            connection = yield net.dial(src, dst.peer_id)
            return connection

        connection = sim.run_process(proc())
        assert connection.relay is None  # punched through to direct
        assert traversal.relay_dials == 1
        assert traversal.upgrades_succeeded == 1

    def test_measurement_dial_bypasses_traversal(self):
        sim, net, dialer, relay, src, dst = punch_world(
            NatMode.PUBLIC, NatMode.PORT_RESTRICTED
        )
        net.install_traversal(NatTraversal(net, dialer))
        assert not cold_dialable(dst, sim.now)

        def proc():
            try:
                yield net.dial(src, dst.peer_id, traverse=False)
            except Exception as exc:  # noqa: BLE001 - inspected below
                return exc
            return None

        # The raw dial measures what a crawler sees: the NAT'ed target
        # is undialable even though the traversal chain could reach it.
        assert sim.run_process(proc()) is not None


def partition_plan(start_s=0.0):
    groups = (frozenset({Region.EU}), frozenset({Region.NA_WEST}))
    return FaultPlan.of(
        FaultRule(FaultKind.PARTITION, partition_groups=groups, start_s=start_s)
    )


class TestPartitionSeversNatPaths:
    """Regression: fault-injection partitions must cut relay
    reservations and in-flight hole-punch coordination, not just plain
    dials and RPCs."""

    def test_reservation_refused_across_cut(self):
        sim, net, dialer, relay, src, dst = punch_world(
            NatMode.PUBLIC, NatMode.PORT_RESTRICTED
        )
        net.install_faults(
            FaultInjector(partition_plan(), derive_rng(1, "faults"))
        )
        other = SimHost(pid(b"late"), region=Region.NA_WEST)
        other.nat = NatBox(NatMode.PORT_RESTRICTED, port_base=7000)
        net.register(other)
        # relay is in EU, the subject in NA_WEST: the cut is active.
        assert not dialer.reserve(other, relay.peer_id)
        assert net.stats.faults_injected >= 1

    def test_circuit_dial_severed_mid_path(self):
        sim, net, dialer, relay, src, dst = punch_world(
            NatMode.PUBLIC, NatMode.PORT_RESTRICTED
        )
        # Reservation happened pre-cut; the partition activates later.
        net.install_faults(
            FaultInjector(partition_plan(start_s=1.0), derive_rng(1, "faults"))
        )

        def proc():
            yield 5.0  # the cut is now active
            try:
                yield from dialer.dial(src, dst.peer_id)
            except Exception as exc:  # noqa: BLE001 - inspected below
                return exc
            return None

        result = sim.run_process(proc())
        assert result is not None  # no relay leg crosses the cut

    def test_hole_punch_coordination_severed(self):
        sim, net, dialer, relay, src, dst = punch_world(
            NatMode.PUBLIC, NatMode.PORT_RESTRICTED
        )

        def proc():
            yield from dialer.dial(src, dst.peer_id)
            # The circuit is up; now the partition activates and the
            # DCUtR coordination (which rides the relay) must die.
            net.install_faults(
                FaultInjector(
                    partition_plan(start_s=sim.now), derive_rng(1, "faults")
                )
            )
            try:
                yield from dialer.hole_punch(src, dst.peer_id)
            except PartitionError as exc:
                return exc
            return None

        result = sim.run_process(proc())
        assert isinstance(result, PartitionError)
        # The severed coordination also tore down the relayed connection.
        assert dst.peer_id not in src.connections
        assert dialer.punches_succeeded == 0


#: Second models of the punch and AutoNAT mechanisms, and NAT state
#: nothing reads: each mechanism has one model, so none may come back.
RETIRED = {
    nat_module: (
        "AutoNatService", "AutoNatResult", "ground_truth_public",
        "discover_observed_address",
    ),
    relay_module: ("PUNCH_SUCCESS", "NatType"),
    NatBox: ("expire", "live_mappings"),
    CircuitDialer: ("_punch_probability",),
}


class TestOneNatModel:
    @pytest.mark.parametrize("owner", list(RETIRED), ids=lambda o: o.__name__)
    def test_retired_names_are_gone(self, owner):
        assert [name for name in RETIRED[owner] if hasattr(owner, name)] == []

    def test_no_write_only_state(self):
        host = SimHost(pid(b"subject"))
        assert not hasattr(host, "observed_port")
        assert not hasattr(host, "autonat_verdict")
        net = SimNetwork(Simulator(), derive_rng(1, "net"))
        traversal = NatTraversal(net, CircuitDialer(net))
        assert not hasattr(traversal, "direct_dials")
        assert not hasattr(traversal, "upgrades_attempted")
        assert not hasattr(RelayService(host), "bytes_relayed")

    def test_autonat_dial_backs_always_come_from_observers(self):
        assert list(inspect.signature(autonat_check).parameters) == [
            "network", "host", "candidate_peers",
        ]

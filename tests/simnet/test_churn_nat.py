"""Tests for churn session processes and AutoNAT."""

import math

from repro.multiformats.peerid import PeerId
from repro.simnet.churn import ALWAYS_ON, ChurnModel
from repro.simnet.nat import AUTONAT_THRESHOLD, autonat_check
from repro.simnet.network import SimHost, SimNetwork
from repro.simnet.sim import Simulator
from repro.utils.rng import derive_rng
from tests.helpers import SessionProcess


def make_host(name: bytes, **kwargs) -> SimHost:
    return SimHost(PeerId.from_public_key(name), **kwargs)


class TestChurnModel:
    def test_median_roughly_matches_parameter(self):
        model = ChurnModel(median_session_s=1800.0)
        rng = derive_rng(1, "churn")
        samples = sorted(model.sample_session_length(rng) for _ in range(4001))
        median = samples[len(samples) // 2]
        assert 1200 < median < 2700  # log-normal median ~ parameter

    def test_heavy_tail_exists(self):
        # Paper: 87.6 % of sessions < 8 h, 2.5 % > 24 h for the
        # aggregate; per-model numbers should be in that ballpark.
        model = ChurnModel(median_session_s=40 * 60)
        rng = derive_rng(2, "churn")
        samples = [model.sample_session_length(rng) for _ in range(5000)]
        under_8h = sum(1 for s in samples if s < 8 * 3600) / len(samples)
        over_24h = sum(1 for s in samples if s > 24 * 3600) / len(samples)
        assert under_8h > 0.80
        assert 0.001 < over_24h < 0.10

    def test_always_on_never_samples(self):
        assert math.isinf(ALWAYS_ON.median_session_s)


class TestSessionProcess:
    def test_host_toggles_over_time(self):
        sim = Simulator()
        host = make_host(b"a")
        model = ChurnModel(median_session_s=600, median_gap_s=600)
        transitions = []
        host.on_status_change.append(lambda online: transitions.append((sim.now, online)))
        SessionProcess(sim, host, model, derive_rng(3, "sess"))
        sim.run(until=24 * 3600)
        assert len(transitions) >= 4  # several sessions in a day

    def test_always_on_host_stays_online(self):
        sim = Simulator()
        host = make_host(b"a", online=False)
        SessionProcess(sim, host, ALWAYS_ON, derive_rng(1, "x"))
        sim.run(until=7 * 24 * 3600)
        assert host.online

    def test_initial_probability_zero_starts_offline(self):
        sim = Simulator()
        host = make_host(b"a")
        SessionProcess(
            sim, host, ChurnModel(), derive_rng(1, "x"), initial_online_probability=0.0
        )
        assert not host.online

    def test_offline_host_drops_connections(self):
        sim = Simulator()
        net = SimNetwork(sim, derive_rng(1, "net"))
        a, b = make_host(b"a"), make_host(b"b")
        net.register(a)
        net.register(b)

        def proc():
            yield net.dial(a, b.peer_id)

        sim.run_process(proc())
        model = ChurnModel(median_session_s=1.0, session_sigma=0.01)
        SessionProcess(sim, b, model, derive_rng(9, "s"), initial_online_probability=1.0)
        sim.run(until=60.0)
        assert not a.is_connected(b.peer_id)


class TestAutonat:
    def _world(self, nat_private: bool, helpers: int = 8):
        sim = Simulator()
        net = SimNetwork(sim, derive_rng(7, "net"))
        subject = make_host(b"subject", nat_private=nat_private)
        net.register(subject)
        peers = []
        for index in range(helpers):
            helper = make_host(b"helper%d" % index)
            net.register(helper)
            peers.append(helper.peer_id)
        return sim, net, subject, peers

    def test_public_peer_upgrades_to_server(self):
        sim, net, subject, peers = self._world(nat_private=False)
        result = sim.run_process(autonat_check(net, subject, peers))
        assert result is True

    def test_nat_peer_stays_client(self):
        sim, net, subject, peers = self._world(nat_private=True)
        result = sim.run_process(autonat_check(net, subject, peers))
        assert result is False

    def test_no_candidates_means_client(self):
        sim, net, subject, _ = self._world(nat_private=False, helpers=0)
        result = sim.run_process(autonat_check(net, subject, []))
        assert result is False

    def test_threshold_constant_matches_paper(self):
        # "If more than three peers can connect ..." (Section 2.3)
        assert AUTONAT_THRESHOLD == 3

    def test_probe_connections_are_cleaned_up(self):
        sim, net, subject, peers = self._world(nat_private=False)
        sim.run_process(autonat_check(net, subject, peers))
        assert subject.connected_peers() == []

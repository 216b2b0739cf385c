"""Tests for the DHT crawler, uptime prober, and session extraction."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.crawl import Crawler, bucket_probe_key
from repro.crawler.prober import PeerTimeline, ProbeConfig, UptimeProber
from repro.crawler.sessions import extract_sessions, online_intervals
from repro.dht.keyspace import common_prefix_length, key_for_peer
from repro.multiformats.peerid import PeerId
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimHost
from repro.simnet.sim import Future
from repro.utils.rng import derive_rng
from tests.helpers import build_world


def attach_crawler(world, bucket_queries=8):
    host = SimHost(
        PeerId.from_public_key(b"crawler"),
        region=Region.EU,
        peer_class=PeerClass.DATACENTER,
    )
    world.net.register(host)
    return Crawler(
        world.sim, world.net, host, derive_rng(1, "crawler"),
        bucket_queries=bucket_queries,
    )


class TestBucketProbeKey:
    def test_key_lands_in_requested_bucket(self):
        rng = derive_rng(3, "probe")
        remote = key_for_peer(PeerId.from_public_key(b"remote"))
        for bucket in (0, 1, 5, 17):
            key = bucket_probe_key(remote, bucket, rng)
            assert common_prefix_length(remote, key) == bucket

    def test_invalid_bucket_rejected(self):
        with pytest.raises(ValueError):
            bucket_probe_key(b"\x00" * 32, 256, derive_rng(1, "x"))

    def test_keys_are_randomized(self):
        rng = derive_rng(4, "probe")
        remote = key_for_peer(PeerId.from_public_key(b"remote"))
        keys = {bucket_probe_key(remote, 3, rng) for _ in range(10)}
        assert len(keys) > 1


class TestCrawl:
    def test_full_sweep_discovers_most_servers(self):
        world = build_world(n=60, seed=50)
        crawler = attach_crawler(world)
        bootstrap = [world.node(i).host.peer_id for i in range(4)]

        def proc():
            return (yield from crawler.crawl(bootstrap))

        result = world.sim.run_process(proc())
        assert len(result.peers_seen) > 0.8 * len(world.nodes)
        assert result.duration > 0
        assert result.rpcs_sent > 0

    def test_offline_peers_reported_undialable(self):
        world = build_world(n=60, seed=51, offline_fraction=0.4)
        crawler = attach_crawler(world)
        bootstrap = [world.node(0).host.peer_id]

        def proc():
            return (yield from crawler.crawl(bootstrap))

        result = world.sim.run_process(proc())
        assert result.undialable
        assert 0.1 < 1 - result.dialable_fraction < 0.7
        # Sanity: the undialable ones truly were offline.
        for peer_id in list(result.undialable)[:10]:
            assert not world.net.hosts[peer_id].reachable

    def test_agent_versions_collected(self):
        world = build_world(n=30, seed=52)
        for node in world.nodes:
            node.host.agent_version = "go-ipfs/0.10.0"
        crawler = attach_crawler(world)

        def proc():
            return (yield from crawler.crawl([world.node(0).host.peer_id]))

        result = world.sim.run_process(proc())
        assert set(result.agent_versions.values()) == {"go-ipfs/0.10.0"}

    def test_crawler_disconnects_after_visits(self):
        world = build_world(n=30, seed=53)
        crawler = attach_crawler(world)

        def proc():
            return (yield from crawler.crawl([world.node(0).host.peer_id]))

        world.sim.run_process(proc())
        assert crawler.host.connected_peers() == []

    def test_empty_bootstrap_finds_nothing(self):
        world = build_world(n=10, seed=54)
        crawler = attach_crawler(world)

        def proc():
            return (yield from crawler.crawl([]))

        result = world.sim.run_process(proc())
        assert result.peers_seen == set()

    def test_waiting_costs_constant_work_per_visit(self, monkeypatch):
        # The worker loop once re-armed a wait over all 64 in-flight
        # visits after every completion: ~71 callback registrations per
        # visit on this world, of which the visits' own dial, RPCs and
        # timeouts are ~15. The result is pinned to what that loop
        # produced for the same seed.
        world = build_world(
            n=300, seed=77, offline_fraction=0.3, client_fraction=0.1
        )
        crawler = attach_crawler(world)
        bootstrap = [world.node(i).host.peer_id for i in range(4)]
        registrations = 0
        add_callback = Future.add_callback

        def counting(future, callback):
            nonlocal registrations
            registrations += 1
            add_callback(future, callback)

        monkeypatch.setattr(Future, "add_callback", counting)
        result = world.sim.run_process(crawler.crawl(bootstrap))
        monkeypatch.undo()

        visits = len(result.dialable) + len(result.undialable)
        assert visits == len(result.peers_seen) == 270
        assert registrations <= 20 * visits
        assert (len(result.dialable), len(result.undialable)) == (189, 81)
        assert result.rpcs_sent == 1512
        assert result.finished_at == 11.436717758783027
        digest = hashlib.sha256()
        for group in (result.dialable, result.undialable):
            for peer_id in sorted(group, key=PeerId.to_bytes):
                digest.update(peer_id.to_bytes())
            digest.update(b"|")
        assert digest.hexdigest() == (
            "b35530cc93ae635bcce302b78fa971a059370f26d1da3bab0b1a9bad6c01e877"
        )


def spy_probes(prober):
    """Every probe's ``(peer, time, outcome)``, read as ``_probe_once``
    returns it: a timeline keeps runs, not probes."""
    probes = []
    probe_once = prober._probe_once

    def spy(peer_id):
        online = yield from probe_once(peer_id)
        probes.append((peer_id, prober.sim.now, online))
        return online

    prober._probe_once = spy
    return probes


def thinned(peer, probes) -> PeerTimeline:
    timeline = PeerTimeline(peer)
    for when, online in probes:
        timeline.record(when, online)
    return timeline


class TestProber:
    def _probe_world(self, seed=60):
        world = build_world(n=10, seed=seed)
        host = SimHost(PeerId.from_public_key(b"prober"), region=Region.EU)
        world.net.register(host)
        prober = UptimeProber(world.sim, world.net, host, ProbeConfig())
        return world, prober

    def test_observes_state_changes(self):
        world, prober = self._probe_world()
        probes = spy_probes(prober)
        target = world.node(3).host
        prober.watch([target.peer_id])
        world.sim.schedule(300.0, lambda: target.set_online(False))
        world.sim.schedule(900.0, lambda: target.set_online(True))
        world.sim.run(until=1800.0)
        prober.stop()
        states = [online for _, _, online in probes]
        assert True in states and False in states
        # the timeline keeps each run's first and last probe, no more
        timeline = prober.timelines[target.peer_id]
        every = [(when, online) for _, when, online in probes]
        assert list(timeline.runs()) == list(thinned(target.peer_id, every).runs())
        assert len(timeline.bounds) == 6 < len(probes)  # online, offline, online

    def test_interval_adapts_to_uptime(self):
        world, prober = self._probe_world(seed=61)
        probes = spy_probes(prober)
        target = world.node(0).host
        prober.watch([target.peer_id])
        world.sim.run(until=3 * 3600.0)
        prober.stop()
        times = [when for _, when, _ in probes]
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Early probes every 30 s; once uptime accumulates, the
        # interval grows and clamps at 15 min.
        assert min(gaps) == pytest.approx(30.0)
        assert max(gaps) == pytest.approx(15 * 60.0)
        timeline = prober.timelines[target.peer_id]
        assert list(timeline.runs()) == [(times[0], times[-1], True)]

    def test_watch_is_idempotent(self):
        world, prober = self._probe_world(seed=62)
        peer = world.node(0).host.peer_id
        prober.watch([peer])
        prober.watch([peer])
        assert len(prober.timelines) == 1

    def test_probe_via_dial_mode(self):
        world, prober = self._probe_world(seed=63)
        probes = spy_probes(prober)
        prober.config = ProbeConfig(probe_via_dial=True)
        online = world.node(1).host
        offline = world.node(2).host
        offline.set_online(False)
        prober.watch([online.peer_id, offline.peer_id])
        world.sim.run(until=120.0)
        prober.stop()
        first = {}
        for peer_id, _, outcome in probes:
            first.setdefault(peer_id, outcome)
        assert first == {online.peer_id: True, offline.peer_id: False}
        assert prober.timelines[online.peer_id].first_online is True
        assert prober.timelines[offline.peer_id].first_online is False


def sessions_of_every_probe(probes, window_end):
    """Sessions and intervals from the full probe list: the reference
    a thinned timeline must equal."""
    sessions, intervals = [], []
    start = last = None
    for when, online in probes:
        if online:
            if start is None:
                start = when
            last = when
        elif start is not None:
            sessions.append((start, max(last, start)))
            intervals.append((start, last))
            start = None
    if start is not None:
        sessions.append((start, window_end))
        intervals.append((start, window_end))
    return sessions, intervals


#: probe lists: strictly later times, any outcomes
probes_st = st.lists(
    st.tuples(st.floats(min_value=0.5, max_value=900.0), st.booleans()), max_size=60
).map(lambda steps: [
    (sum(gap for gap, _ in steps[:i + 1]), online) for i, (_, online) in enumerate(steps)
])


@settings(max_examples=200, deadline=None)
@given(probes=probes_st)
def test_thinned_timeline_gives_the_full_lists_sessions(probes):
    peer = PeerId.from_public_key(b"p")
    timeline = thinned(peer, probes)
    window_end = probes[-1][0] + 60.0 if probes else 60.0
    sessions, intervals = sessions_of_every_probe(probes, window_end)
    got = extract_sessions({peer: timeline}, {peer: "US"}, window_end)
    assert [(s.start, s.end) for s in got] == sessions
    assert online_intervals({peer: timeline}, window_end) == {peer: intervals}
    assert timeline.online == (bool(probes) and probes[-1][1])
    # what the prober's next interval reads: the open session's length
    uptime = probes[-1][0] - sessions[-1][0] if timeline.online else 0.0
    assert timeline.current_uptime_s == uptime
    # at most two stored times per run of equal outcomes
    changes = sum(a[1] != b[1] for a, b in zip(probes, probes[1:]))
    assert len(timeline.bounds) == (2 * (changes + 1) if probes else 0)


class TestSessionExtraction:
    def _timeline(self, peer, observations):
        return thinned(peer, observations)

    def test_sessions_split_on_offline(self):
        peer = PeerId.from_public_key(b"p")
        timeline = self._timeline(
            peer,
            [(0, True), (60, True), (120, False), (180, True), (240, False)],
        )
        sessions = extract_sessions({peer: timeline}, {peer: "US"}, window_end=300)
        assert [(s.start, s.end) for s in sessions] == [(0, 60), (180, 180)]
        assert all(s.group == "US" for s in sessions)

    def test_open_session_truncated_at_window(self):
        peer = PeerId.from_public_key(b"p")
        timeline = self._timeline(peer, [(0, True), (100, True)])
        sessions = extract_sessions({peer: timeline}, {peer: "DE"}, window_end=500)
        assert sessions[0].end == 500

    def test_online_intervals(self):
        peer = PeerId.from_public_key(b"p")
        timeline = self._timeline(
            peer, [(0, True), (50, True), (100, False), (200, True)]
        )
        intervals = online_intervals({peer: timeline}, window_end=300)
        assert intervals[peer] == [(0, 50), (200, 300)]

    def test_never_online_peer_has_no_sessions(self):
        peer = PeerId.from_public_key(b"p")
        timeline = self._timeline(peer, [(0, False), (60, False)])
        assert extract_sessions({peer: timeline}, {}, window_end=100) == []

"""Deployment-scale experiments (Section 5).

Two complementary modes, matching how the paper's figures are built:

- :func:`run_crawl_timeseries` — drive the actual crawler + prober
  over a simulated world for simulated days (Figure 4a, Figure 8, and
  the reliable/unreachable splits of Figures 7a/7b);
- :func:`analyze_population` — the registry-join analysis (Figures 5,
  7c, 7d, Tables 2, 3), which needs only the population, so it runs at
  much larger scales than the event simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crawler.crawl import Crawler, CrawlResult
from repro.crawler.prober import ProbeConfig, UptimeProber
from repro.crawler.sessions import extract_sessions, online_intervals
from repro.measurement.analysis import (
    AsShare,
    CloudShare,
    as_distribution,
    cloud_distribution,
    country_distribution,
    multihoming_share,
    peers_per_ip_cdf,
    reliability_split,
    top_as_cumulative_share,
)
from repro.measurement.churn_analysis import (
    ChurnSummary,
    SessionObservation,
    churn_cdf_by_group,
    filter_for_bias,
    session_statistics,
    uptime_fraction,
)
from repro.multiformats.peerid import PeerId
from repro.simnet.compact import CompactWorld
from repro.simnet.latency import PeerClass, Region
from repro.simnet.network import SimHost
from repro.utils.rng import derive_rng
from repro.utils.stats import Cdf
from repro.workloads.population import Population


@dataclass(frozen=True)
class CrawlCampaignConfig:
    """The paper crawls every 30 minutes from a server in Germany."""

    crawl_interval_s: float = 1800.0
    duration_s: float = 12 * 3600.0
    bucket_queries: int = 8
    #: fraction of seen peers handed to the uptime prober. 1.0 (the
    #: default) probes everything, as the paper's monitor does; scale
    #: runs sample down (200 k peers x a 30 s minimum probe interval is
    #: millions of probe events for statistics a uniform sample
    #: estimates just as well). Selection is by a fixed keyspace cut of
    #: the peer's DHT key, so it is deterministic, stable across crawls
    #: and processes, and — the keyspace being uniform — unbiased.
    probe_sample: float = 1.0
    seed: int = 13


@dataclass
class CrawlCampaignResults:
    crawls: list[CrawlResult] = field(default_factory=list)
    sessions: list[SessionObservation] = field(default_factory=list)
    uptime_by_peer: dict[PeerId, float] = field(default_factory=dict)
    window: tuple[float, float] = (0.0, 0.0)

    def timeseries(self) -> list[tuple[float, int, int, int]]:
        """(start, total, dialable, undialable) per crawl (Fig 4a)."""
        # dialable and undialable are disjoint (one visit per peer), so
        # the total needs no union of the two sets
        return [
            (
                c.started_at, len(c.dialable) + len(c.undialable),
                len(c.dialable), len(c.undialable),
            )
            for c in self.crawls
        ]

    def undialable_fraction(self) -> float | None:
        """Mean undialable share over the non-empty crawls (Fig 4a);
        ``None`` when no crawl saw a peer."""
        shares = [u / total for _, total, _, u in self.timeseries() if total]
        return sum(shares) / len(shares) if shares else None

    def churn_summary(self) -> ChurnSummary:
        return session_statistics(self.sessions)

    def churn_cdfs(self) -> dict[str, Cdf]:
        return churn_cdf_by_group(self.sessions)


def run_crawl_timeseries(
    world: CompactWorld, config: CrawlCampaignConfig
) -> CrawlCampaignResults:
    """Crawl the simulated world periodically, probing what it finds."""
    sim = world.sim
    crawler_host = SimHost(
        PeerId.from_public_key(b"crawler-de"),
        region=Region.EU,
        peer_class=PeerClass.DATACENTER,
    )
    world.net.register(crawler_host)
    crawler = Crawler(
        sim, world.net, crawler_host,
        derive_rng(config.seed, "crawler"),
        bucket_queries=config.bucket_queries,
    )
    prober_host = SimHost(
        PeerId.from_public_key(b"prober-de"),
        region=Region.EU,
        peer_class=PeerClass.DATACENTER,
    )
    world.net.register(prober_host)
    prober = UptimeProber(sim, world.net, prober_host, ProbeConfig())

    results = CrawlCampaignResults()
    window_start = sim.now

    def campaign():
        end = sim.now + config.duration_s
        while sim.now < end:
            crawl_started = sim.now
            result = yield from crawler.crawl(world.bootstrap_ids)
            results.crawls.append(result)
            watched = sorted(result.peers_seen, key=PeerId.to_bytes)
            if config.probe_sample < 1.0:
                cutoff = int(config.probe_sample * 2**32)
                watched = [
                    peer_id for peer_id in watched
                    if int.from_bytes(peer_id.dht_key()[:4], "big") < cutoff
                ]
            prober.watch(watched)
            remaining = config.crawl_interval_s - (sim.now - crawl_started)
            if remaining > 0:
                yield remaining

    sim.run_process(campaign())
    prober.stop()
    window_end = sim.now
    results.window = (window_start, window_end)
    group_of = {
        peer_id: world.country_of(peer_id) for peer_id in prober.timelines
    }
    raw_sessions = extract_sessions(prober.timelines, group_of, window_end)
    results.sessions = filter_for_bias(raw_sessions, window_start, window_end)
    results.uptime_by_peer = uptime_fraction(
        online_intervals(prober.timelines, window_end), window_start, window_end
    )
    return results


@dataclass
class PopulationAnalysis:
    """Everything the registry-join figures need (Figs 5, 7, Tables 2-3)."""

    country_shares: dict[str, float]
    multihoming: float
    peers_per_ip: Cdf
    as_rows: list[AsShare]
    top10_as_share: float
    top100_as_share: float
    cloud_rows: list[CloudShare]
    non_cloud: CloudShare
    reliable_by_country: dict[str, float]
    never_by_country: dict[str, float]


def analyze_population(population: Population) -> PopulationAnalysis:
    """The pure-analysis pipeline over a (possibly very large) population."""
    peer_ips = population.peer_ips()
    ips = population.all_ips()
    as_rows = as_distribution(ips, population.geo)
    cloud_rows, non_cloud = cloud_distribution(ips, population.clouds)
    # Reliability splits per country, in per-mille of all peers as in
    # Figure 7a.
    total = len(population.peers)
    reliable: dict[str, float] = {}
    never: dict[str, float] = {}
    for spec in population.peers:
        if spec.reachability == "reliable":
            reliable[spec.country] = reliable.get(spec.country, 0) + 1 / total
        elif spec.reachability == "never":
            never[spec.country] = never.get(spec.country, 0) + 1 / total
    return PopulationAnalysis(
        country_shares=country_distribution(peer_ips, population.geo),
        multihoming=multihoming_share(peer_ips, population.geo),
        peers_per_ip=peers_per_ip_cdf(peer_ips),
        as_rows=as_rows,
        top10_as_share=top_as_cumulative_share(as_rows, 10),
        top100_as_share=top_as_cumulative_share(as_rows, 100),
        cloud_rows=cloud_rows,
        non_cloud=non_cloud,
        reliable_by_country=dict(
            sorted(reliable.items(), key=lambda kv: -kv[1])
        ),
        never_by_country=dict(sorted(never.items(), key=lambda kv: -kv[1])),
    )


def observed_reliability(
    results: CrawlCampaignResults,
) -> tuple[set[PeerId], set[PeerId], set[PeerId]]:
    """(reliable, intermittent, never) from probe data (Figs 7a/7b)."""
    return reliability_split(results.uptime_by_peer)

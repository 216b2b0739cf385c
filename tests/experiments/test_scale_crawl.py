"""Tests for the paper-scale crawl experiment (Figs 4a/8 over compact
worlds).

Grading logic is pinned against synthetic campaign results (fast, no
world); the end-to-end path runs a deliberately tiny world and checks
the report's structure and determinism — the 200 k graded run itself
lives in the nightly job and ``benchmarks/test_scale_crawl.py``.
"""

from __future__ import annotations

from repro.crawler.crawl import CrawlResult
from repro.experiments import scale
from repro.experiments.deployment import (
    CrawlCampaignResults,
    run_crawl_timeseries,
)
from repro.experiments.scale import (
    ScaleCrawlConfig,
    grade_scale_results,
    run_scale_crawl,
)
from repro.measurement.churn_analysis import SessionObservation
from repro.multiformats.peerid import PeerId
from repro.simnet.compact import build_compact_world
from repro.validation.compare import Grade

TINY = ScaleCrawlConfig(n_peers=500, duration_s=2 * 3600.0, probe_sample=0.5)


def _peer(i: int) -> PeerId:
    return PeerId.from_public_key(b"scale-test-%d" % i)


def _synthetic_results(
    undialable_frac: float = 0.46,
    under_8h: float = 0.87,
    over_24h: float = 0.02,
    n_sessions: int = 400,
) -> CrawlCampaignResults:
    results = CrawlCampaignResults()
    peers = [_peer(i) for i in range(200)]
    n_undialable = int(len(peers) * undialable_frac)
    for crawl_index in range(8):
        results.crawls.append(CrawlResult(
            started_at=crawl_index * 1800.0,
            finished_at=crawl_index * 1800.0 + 60.0,
            dialable=set(peers[n_undialable:]),
            undialable=set(peers[:n_undialable]),
        ))
    # Session lengths: a short mode under 8 h, a sliver over 24 h, the
    # rest in between; DE strictly longer than HK.
    sessions = []
    n_over = int(n_sessions * over_24h)
    n_under = int(n_sessions * under_8h)
    for i in range(n_sessions):
        if i < n_over:
            length, group = 25 * 3600.0, "US"
        elif i < n_over + n_under:
            length = 1800.0 + (i % 50) * 60.0
            group = "DE" if i % 2 else "HK"
        else:
            length, group = 12 * 3600.0, "US"
        if group == "DE":
            length += 1800.0
        sessions.append(SessionObservation(
            peer=_peer(i), group=group, start=0.0, end=length
        ))
    results.sessions = sessions
    results.window = (0.0, 12 * 3600.0)
    return results


def test_grading_passes_on_paper_like_results():
    claims = grade_scale_results(ScaleCrawlConfig(), _synthetic_results())
    by_key = {claim.key: claim for claim in claims}
    assert set(by_key) == {
        "scale.undialable_fraction",
        "scale.crawl_stability",
        "scale.session_under_8h",
        "scale.session_over_24h",
        "scale.session_count",
        "scale.de_over_hk_median",
    }
    for claim in claims:
        assert claim.grade is Grade.PASS, (claim.key, claim.measured)


def test_grading_fails_on_wrong_undialable_share():
    claims = grade_scale_results(
        ScaleCrawlConfig(), _synthetic_results(undialable_frac=0.05)
    )
    by_key = {claim.key: claim for claim in claims}
    assert by_key["scale.undialable_fraction"].grade is Grade.FAIL


def test_grading_warns_on_truncated_sessions():
    claims = grade_scale_results(
        ScaleCrawlConfig(), _synthetic_results(under_8h=1.0, over_24h=0.0)
    )
    by_key = {claim.key: claim for claim in claims}
    assert by_key["scale.session_under_8h"].grade is not Grade.PASS


def test_tiny_end_to_end_report(monkeypatch):
    campaigns = []
    worlds = []

    def recording(world, config):
        worlds.append(world)
        campaigns.append(run_crawl_timeseries(world, config))
        return campaigns[-1]

    monkeypatch.setattr(scale, "run_crawl_timeseries", recording)
    report = run_scale_crawl(TINY)
    doc = report.to_json_dict()
    assert doc["schema"] == "repro.graded/v1"
    assert doc["experiment"] == "scale"
    assert doc["config"]["n_peers"] == TINY.n_peers
    assert len(doc["cells"]) == 4  # 2 h / 30 min
    for row in doc["cells"]:
        assert row["total"] == row["dialable"] + row["undialable"]
    assert doc["telemetry"]["events_processed"] > 0
    # a routing table attaches only where a FIND_NODE was delivered, and
    # the crawler only sends one to a peer it dialed
    dialed = set().union(*(crawl.dialable for crawl in campaigns[0].crawls))
    assert 0 < doc["telemetry"]["materialized"] <= len(dialed) < TINY.n_peers
    # every visited peer answered from its stored runs; the crawler is
    # no DHT server, so it wrote to none of them, and a table object
    # exists only where a write did
    assert len(worlds[0]._runs) == doc["telemetry"]["materialized"]
    assert worlds[0]._tables == {} and worlds[0].nodes == {}
    # 426.0 B/peer measured on CPython 3.11.7 (661.1 with 4-byte table
    # positions and 8-byte offsets); the bound is 1.33x that, so a
    # per-peer array or index that grows by a third fails here.
    assert 0 < doc["telemetry"]["compact_bytes_per_peer"] <= 567
    assert doc["overall"] in {"PASS", "WARN", "FAIL"}
    assert report.render_text()


def test_campaign_that_outlives_the_churn_horizon_grades_in_full(monkeypatch):
    """A schedule that runs out is redrawn draw for draw, so a world
    pre-drawn to only 600 s runs and grades an hour-long campaign
    exactly as one pre-drawn past its end."""
    config = ScaleCrawlConfig(n_peers=300, duration_s=3600.0, probe_sample=0.5)
    worlds, campaigns = [], []

    def recording(world, campaign_config):
        worlds.append(world)
        campaigns.append(run_crawl_timeseries(world, campaign_config))
        return campaigns[-1]

    def short_horizon(compact, scenario_config, *, churn_horizon_s):
        assert churn_horizon_s > config.duration_s
        return build_compact_world(compact, scenario_config, churn_horizon_s=600.0)

    monkeypatch.setattr(scale, "run_crawl_timeseries", recording)
    full = run_scale_crawl(config).to_json_dict()
    monkeypatch.setattr(scale, "build_compact_world", short_horizon)
    short = run_scale_crawl(config).to_json_dict()
    assert not worlds[0]._churn_redrawn
    assert worlds[1]._churn_redrawn, "the campaign must outlive some schedules"
    full_run, short_run = (
        (c.timeseries(), c.sessions, c.uptime_by_peer) for c in campaigns
    )
    assert short_run == full_run
    del full["telemetry"], short["telemetry"]
    assert short == full


def test_rerun_gives_the_same_document():
    """Same config, same graded document (minus wall-clock telemetry)."""
    docs = []
    for _ in range(2):
        doc = run_scale_crawl(TINY).to_json_dict()
        del doc["telemetry"]
        docs.append(doc)
    assert docs[0] == docs[1]

"""The paper's own evaluation as one registry of graded figures.

Figs 4-11, Tables 1-5 (Sections 4-6) and the six design ablations are
each one :class:`Figure` in :data:`FIGURES`: the dataset it reads and a
``build(results) -> (body, claims)`` that renders the table or figure
as text and grades its shape checks as :class:`~repro.validation.report.
Claim` rows (``<figure>.<quantity>``, scoped by figure). The datasets
come from the four runners of :mod:`repro.experiments.datasets`, which
the ``perf`` / ``deployment`` / ``crawl`` / ``gateway`` subcommands
call too before printing :func:`render_dataset`'s bodies.

This is also the one place the paper-target registry
(:data:`repro.validation.targets.TARGETS`) is graded: each of its rows
is emitted once, under its registry key (``peer.undialable_fraction``),
by the figure that reads its data. A figure quantity with a definition
of its own keeps its own key beside the registry's (``fig09abc.
publication_p50_s`` is the CDF's sample median, ``perf.publication_p50_s``
the interpolated one).

:func:`run_figures` runs the frozen bench shape (:data:`BENCH`) as one
cell per dataset and per ablation. Figures are built inside the cell,
so only text and claims cross the process boundary and any ``workers``
value yields the same ``BENCH_figures.json``.

Thresholds are the ones the shape checks always had (DESIGN.md §5m maps
each old condition to its comparator call): a floor is
``grade_at_least(x, floor, 0.0)``, a cap ``grade_distance(x, cap, cap)``,
a band the distance from its midpoint, an ordering a floor or cap of 1
on the ratio of the two sides, so the artifact shows the margin.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.dht.keyspace import key_for_cid
from repro.dht.lookup import LookupConfig
from repro.experiments.datasets import (
    build_world,
    crawl_dataset,
    deployment_dataset,
    gateway_dataset,
    perf_dataset,
)
from repro.experiments.deployment import (
    CrawlCampaignResults,
    PopulationAnalysis,
    observed_reliability,
)
from repro.experiments.perf import PerfResults
from repro.experiments.report import (
    render_cdf,
    render_series,
    render_share_table,
    render_table,
)
from repro.experiments.runner import Cell, run_cells
from repro.experiments.scenario import Scenario
from repro.gateway.logs import CacheTier, TierSummary
from repro.gateway.replay import (
    TIER_NGINX,
    TIER_NODE_STORE,
    ReplayResult,
    request_latencies,
    resolve_tiers,
    window_slices,
)
from repro.measurement.stretch import retrieval_stretch
from repro.multiformats.cid import make_cid
from repro.node.config import NodeConfig
from repro.obs import (
    Tracer,
    publication_breakdown,
    records_from_tracer,
    retrieval_breakdown,
    walk_share,
)
from repro.simnet import compact
from repro.utils.rng import derive_rng
from repro.utils.stats import Cdf, mean, pearson_correlation, percentile, percentiles
from repro.validation.compare import (
    Grade,
    grade_at_least,
    grade_distance,
    ks_against_reference,
)
from repro.validation.report import Claim, GradedReport
from repro.validation.targets import RETRIEVAL_CDF_FIG9D, TARGETS_BY_KEY
from repro.workloads.gateway_trace import (
    ColumnarTrace,
    GatewayTraceConfig,
    generate_columnar_trace,
)


@dataclass(frozen=True)
class FiguresConfig:
    """The frozen bench shape behind ``BENCH_figures.json``.

    ``seed`` is the world seed of the three peer/perf datasets; every
    other seed the benches always used (campaign 13, perf objects 7,
    gateway day 99, the ablations' 1000-5000) moves with it, so
    ``--seed`` reseeds every world.
    """

    seed: int = 42
    perf_peers: int = 2000
    perf_rounds: int = 10
    population_peers: int = 60_000
    crawl_peers: int = 800
    crawl_hours: float = 12.0
    crawl_interval_s: float = 1800.0
    gateway_scale: int = 40  # 7.1M / 40 ≈ 177k requests

    def seeded(self, base: int) -> int:
        """``base`` at the frozen seed, shifted along with ``seed``."""
        return base + self.seed - 42


#: What ``figures`` runs; the subcommand has no flag that changes it.
BENCH = FiguresConfig()

# -- claims -------------------------------------------------------------------


def _ratio(numerator: float | None, denominator: float | None) -> float | None:
    """``None`` when either side is missing or the denominator is zero."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _lead_margin(shares: Mapping[Any, float], leaders: Sequence[Any]) -> float | None:
    """How clearly ``leaders`` head ``shares`` in that order: the
    smallest ratio of each to the next, the last against the best of
    everything else — above 1 exactly when they top the table in order."""
    values = [shares.get(key, 0.0) for key in leaders]
    values.append(max((v for key, v in shares.items() if key not in leaders), default=0.0))
    return _pick(min, [_ratio(a, b) for a, b in zip(values, values[1:])])


def _pick(choose: Callable, values: Sequence[float | None]) -> float | None:
    """``choose(values)``, undefined as soon as one of them is."""
    return None if None in values or not values else choose(values)


def _worst(values: Sequence[float | None], middle: float) -> float | None:
    """The value furthest from ``middle``: all of them sit in a band
    around it exactly when this one does."""
    return _pick(lambda defined: max(defined, key=lambda v: abs(v - middle)), values)


class _Claims:
    """The claim rows of one figure. A quantity that cannot be computed
    (``None``: an empty region, a zero denominator) FAILs its claim."""

    def __init__(self, figure: str) -> None:
        self.figure = figure
        self.rows: list[Claim] = []

    def _add(self, key, measured, expected, grade, description) -> None:
        verdict = (None, Grade.FAIL) if measured is None else grade(measured)
        self.rows.append(Claim.graded(
            key, None if measured is None else float(measured), float(expected),
            verdict, scope=self.figure, description=description,
        ))

    def at_least(self, quantity, measured, floor, description) -> None:
        self._add(f"{self.figure}.{quantity}", measured, floor,
                  lambda x: grade_at_least(x, floor, 0.0), description)

    def at_most(self, quantity, measured, cap, description) -> None:
        self._add(f"{self.figure}.{quantity}", measured, cap,
                  lambda x: grade_distance(max(x, 0.0), cap, cap), description)

    def within(self, quantity, measured, low, high, description) -> None:
        middle, half = (low + high) / 2, (high - low) / 2
        self._add(f"{self.figure}.{quantity}", measured, middle,
                  lambda x: grade_distance(abs(x - middle), half, half), description)

    def target(self, key, measured, description) -> None:
        """Row ``key`` of the paper-target registry, under that key: the
        registry's value, band and comparator."""
        target = TARGETS_BY_KEY[key]
        self._add(key, measured, target.paper_value, target.grade, description)

    def band(self, quantity, key, measured, description) -> None:
        """A quantity of this figure graded in registry row ``key``'s band."""
        target = TARGETS_BY_KEY[key]
        self._add(f"{self.figure}.{quantity}", measured, target.paper_value,
                  target.grade, description)

    def info(self, quantity, measured, paper, description) -> None:
        """A known deviation (EXPERIMENTS.md): reported, not graded."""
        self.rows.append(Claim(
            f"{self.figure}.{quantity}", measured, paper, None,
            scope=self.figure, description=description,
        ))


# -- peer dataset: the crawl campaign (Figs 4a, 8) ------------------------------


def _fig04a(dataset: tuple[Scenario, CrawlCampaignResults], c: _Claims) -> str:
    scenario, campaign = dataset
    series = campaign.timeseries()
    # Figures 7a/7b from *observed* probe data (not ground truth):
    # uptime fractions measured by the adaptive prober.
    reliable, intermittent, never = observed_reliability(campaign)
    probed = len(reliable) + len(intermittent) + len(never)
    coverage = [total for _, total, _, _ in series]
    mean_undialable = campaign.undialable_fraction()
    c.at_least("crawls", len(series), 8,
               f"{len(series)} crawls completed over the campaign window")
    c.at_least("never_reachable_share", _ratio(len(never), probed) if reliable else None, 0.2,
               "probed peers split into all three reliability classes "
               "(paper: 1.4% reliable, ~1/3 never reachable)")
    c.at_least("min_crawl_coverage", min(coverage) / len(scenario.world), 0.7,
               "every crawl reaches the bulk of the server population")
    c.target("peer.undialable_fraction", mean_undialable,
             "a large minority of crawled peers is undialable (measured "
             + ("nothing" if mean_undialable is None else f"{mean_undialable:.0%}")
             + ", paper ~45.5% of addresses)")
    c.at_most("coverage_swing", _ratio(max(coverage) - min(coverage), max(coverage)), 0.4,
              "peer counts are stable crawl over crawl (no collapse)")
    return render_series(
        "Fig 4a — peers seen per crawl (total / dialable / undialable); "
        "paper: ~45.5% of addresses never reachable",
        [
            (start, f"total={total:4d} dialable={dialable:4d} undialable={undialable:4d} "
                    f"({undialable / max(total, 1):5.1%} undialable)")
            for start, total, dialable, undialable in series
        ],
    ) + (
        f"\nobserved reliability (Figs 7a/7b): {len(reliable)} reliable "
        f"(>90% uptime), {len(intermittent)} intermittent, {len(never)} "
        f"never reachable of {probed} probed peers"
    )


def _fig08(dataset: tuple[Scenario, CrawlCampaignResults], c: _Claims) -> str:
    summary, cdfs = dataset[1].churn_summary(), dataset[1].churn_cdfs()
    c.target("peer.session_under_8h", summary.under_8h_fraction,
             f"most sessions are short: {summary.under_8h_fraction:.0%} under 8 h"
             " (paper 87.6%)")
    c.at_most("session_over_24h", summary.over_24h_fraction, 0.12,
              f"long sessions are rare: {summary.over_24h_fraction:.1%} over 24 h"
              " (paper 2.5%)")
    c.at_least("session_count", summary.session_count, 300,
               "several hundred session observations per campaign")
    if "HK" in cdfs and "DE" in cdfs:  # as scale.de_over_hk_median
        hk_median, de_median = cdfs["HK"].value_at(0.5), cdfs["DE"].value_at(0.5)
        c.at_least("de_over_hk_median", _ratio(de_median, hk_median), 1.0,
                   f"Germany's median uptime ({de_median/60:.0f} min) above "
                   f"Hong Kong's ({hk_median/60:.0f} min), as in the paper "
                   "(the 12 h window censors DE's long tail, so the factor is "
                   "smaller than the paper's 2x)")
    return "\n".join([
        f"== Fig 8 — churn from {summary.session_count} probe-observed sessions ==",
        f"median session      : {summary.median_s / 60:.1f} min",
        f"sessions under 8 h  : {summary.under_8h_fraction:.1%} (paper 87.6%)",
        f"sessions over 24 h  : {summary.over_24h_fraction:.1%} (paper 2.5%)",
        *(
            render_cdf(f"Fig 8 — session-length CDF, {country} "
                       f"(paper medians: HK 24.2 min, DE ~2x HK)",
                       cdfs[country], grid=[600, 1800, 3600, 4 * 3600])
            for country in ("HK", "DE", "US", "CN", "FR") if country in cdfs
        ),
    ])


# -- peer dataset: the registry joins (Figs 5, 7, Tables 2, 3) -------------------

_PEER_COUNTRIES = {"US": 0.285, "CN": 0.242, "FR": 0.083, "TW": 0.072, "KR": 0.067}
_TOP_ASES = {4134: 0.189, 4837: 0.128, 4760: 0.096, 26599: 0.069, 3462: 0.053}
_CLOUD_SHARES = {
    "Contabo GmbH": 0.0044, "Amazon AWS": 0.0039, "Microsoft Azure/Corporation": 0.0033,
    "Digital Ocean": 0.0018, "Hetzner Online": 0.0013,
}


def _fig05(analysis: PopulationAnalysis, c: _Claims) -> str:
    shares = analysis.country_shares
    c.at_least("us_cn_lead_margin", _lead_margin(shares, ["US", "CN"]), 1.0,
               "US and CN dominate (paper: 28.5% and 24.2%)")
    c.at_least("fr_tw_kr_in_ranks_3_to_5",
               len({"FR", "TW", "KR"}.intersection(list(shares)[2:5])), 3,
               "FR / TW / KR fill the next ranks")
    c.at_most("top5_share_max_deviation",
              max(abs(shares.get(k, 0.0) - paper) for k, paper in _PEER_COUNTRIES.items()),
              0.03, "top-five shares within 3 points of the paper")
    c.within("countries", len(shares), 120, 160, f"~150 countries observed ({len(shares)})")
    c.target("peer.multihoming_share", analysis.multihoming,
             f"multihoming share {analysis.multihoming:.1%} (paper 8.8%)")
    c.target("peer.country_share_us", shares.get("US", 0.0), "US share of peers (paper 28.5%)")
    c.target("peer.country_share_cn", shares.get("CN", 0.0), "CN share of peers (paper 24.2%)")
    return render_share_table(
        "Fig 5 — geographical distribution of peers", shares, top=10,
        reference=_PEER_COUNTRIES,
    )


def _fig07(analysis: PopulationAnalysis, c: _Claims) -> str:
    cdf = analysis.peers_per_ip
    reliable_total = sum(analysis.reliable_by_country.values())
    never_total = sum(analysis.never_by_country.values())
    single = cdf.probability_at(1)
    c.within("reliable_share", reliable_total, 0.005, 0.04,
             f"~1.4% of peers reliable (measured {reliable_total:.1%})")
    c.target("peer.never_reachable_share", never_total,
             f"~1/3 of peers never reachable (measured {never_total:.1%})")
    c.at_most("largest_reliable_country_share",
              max(analysis.reliable_by_country.values(), default=0.0), 0.015,
              "reliable distribution is egalitarian: largest country < 1.5%"
              " of all peers (paper: 0.3% for the US)")
    c.at_least("single_peer_ip_floor", single, 0.9,
               f"most IPs host a single PeerID ({single:.1%})")
    c.at_least("largest_ip_peers", cdf.xs[-1], 1000,
               "a few mega-IPs host thousands of PeerIDs")
    c.target("peer.top10_as_share", analysis.top10_as_share,
             "top-10 ASes hold ~65% of IPs")
    c.target("peer.top100_as_share", analysis.top100_as_share,
             "top-100 ASes hold ~90% of IPs")
    c.info("single_peer_ip_share", single, 0.923,
           "IPs hosting a single PeerID (known deviation 4)")
    return "\n\n".join([
        render_share_table(
            "Fig 7a — reliable (>90% uptime) peers by country (share of ALL peers)",
            analysis.reliable_by_country, top=8,
        ),
        render_share_table(
            "Fig 7b — never-reachable peers by country (share of ALL peers)",
            analysis.never_by_country, top=8,
        ),
        render_cdf("Fig 7c — PeerIDs per IP address (paper: 92.3% single; "
                   "top-10 IPs host ~1/3 of all PeerIDs)",
                   cdf, grid=[1, 2, 10, 100], unit=" peers"),
    ]) + (
        f"\nFig 7d — cumulative AS shares: top-10 = {analysis.top10_as_share:.1%} "
        f"(paper 64.9%), top-100 = {analysis.top100_as_share:.1%} (paper 90.6%), "
        f"{len(analysis.as_rows)} ASes total (paper 2715)"
    )


def _table2(analysis: PopulationAnalysis, c: _Claims) -> str:
    rows = analysis.as_rows[:5]
    measured = {row.asn: row.share for row in analysis.as_rows}
    c.at_least("paper_order_margin", _lead_margin(measured, list(_TOP_ASES)), 1.0,
               "the paper's five ASes top the table, in order")
    c.at_least("top5_share", sum(row.share for row in rows), 0.5,
               ">50% of IPs sit in just five ASes")
    c.at_least("chinese_backbones_share",
               measured.get(4134, 0.0) + measured.get(4837, 0.0), 0.25,
               "the two Chinese backbones alone hold >25% of IPs (paper 31.7%)")
    c.at_most("top_as_max_deviation",
              max(abs(measured.get(asn, 0.0) - share) for asn, share in _TOP_ASES.items()),
              0.025, "every top-AS share within 2.5 points of the paper")
    return render_table(
        "Table 2 — top ASes by IP share",
        ["share", "paper", "ASN", "rank", "name"],
        [(f"{row.share:6.1%}", f"{_TOP_ASES.get(row.asn, 0):6.1%}", row.asn, row.rank,
          row.name[:48]) for row in rows],
    )


def _table3(analysis: PopulationAnalysis, c: _Claims) -> str:
    rows, non_cloud = analysis.cloud_rows, analysis.non_cloud
    named = {r.provider: r.share for r in rows if r.provider != "Other Cloud Providers"}
    contabo, aws = named.pop("Contabo GmbH", 0.0), named.pop("Amazon AWS", 0.0)
    cloud_total = 1.0 - non_cloud.share
    c.target("peer.cloud_ip_share", cloud_total,
             f"cloud share {cloud_total:.2%} is small (<2.3% in the paper)")
    c.at_least("contabo_aws_lead_margin",
               _ratio(min(contabo, aws), max(named.values(), default=0.0)), 1.0,
               "Contabo and AWS are the two largest cloud hosts (as in "
               "the paper's Table 3)")
    c.at_least("non_cloud_share", non_cloud.share, 0.965,
               "the overwhelming majority of nodes are self-hosted")
    return render_table(
        "Table 3 — cloud-provider IP shares",
        ["provider", "IPs", "share", "paper"],
        [
            (r.provider, r.ip_count, f"{r.share:6.2%}",
             f"{_CLOUD_SHARES[r.provider]:6.2%}" if r.provider in _CLOUD_SHARES else "-")
            for r in rows[:12]
        ] + [("Non-Cloud", non_cloud.ip_count, f"{non_cloud.share:6.2%}", "97.71%")],
    )


# -- performance dataset (Tables 1, 4, Figs 9, 10) -------------------------------

#: The paper's Table 1 (publications, retrievals).
_OPERATION_COUNTS = {
    "af_south_1": (547, 2047), "ap_southeast_2": (547, 2630), "eu_central_1": (547, 2708),
    "me_south_1": (547, 2112), "sa_east_1": (546, 2363), "us_west_1": (547, 2704),
}
#: The paper's Table 4 (seconds): publication, retrieval p50/p90/p95.
_LATENCIES = {
    "af_south_1": ((28.93, 107.14, 127.22), (3.75, 4.88, 5.31)),
    "ap_southeast_2": ((36.26, 117.74, 142.79), (3.76, 4.85, 5.15)),
    "eu_central_1": ((27.70, 106.91, 133.27), (1.81, 2.28, 2.50)),
    "me_south_1": ((29.32, 105.45, 130.48), (2.59, 3.24, 3.48)),
    "sa_east_1": ((42.32, 115.45, 148.04), (3.60, 4.56, 4.93)),
    "us_west_1": ((36.02, 121.13, 147.59), (2.48, 3.17, 3.42)),
}
_NEAR_REGIONS = ("eu_central_1", "us_west_1")
#: The regions the paper finds slowest for retrievals (Table 4 / Fig 9a:
#: af_south and ap_southeast; sa_east sits in the same far band).
_FAR_REGIONS = ("af_south_1", "ap_southeast_2", "sa_east_1")


def _table1(results: PerfResults, c: _Claims) -> str:
    counts = results.operation_counts()
    c.at_least("min_operations_per_region",
               min(min(pubs, gets) for pubs, gets in counts.values()), 1,
               "every region both publishes and retrieves")
    c.within("retrievals_per_publication_worst",
             _worst([_ratio(gets, pubs) for pubs, gets in counts.values()], 4), 3, 5,
             "each region retrieves ~(regions-1)x its publications")
    return render_table(
        "Table 1 — operations per AWS region (measured vs paper)",
        ["region", "pubs", "gets", "paper pubs", "paper gets"],
        [(region, pubs, gets, *_OPERATION_COUNTS[region])
         for region, (pubs, gets) in counts.items()]
        + [("Total", sum(p for p, _ in counts.values()), sum(g for _, g in counts.values()),
            3281, 14564)],
        note="Counts scale with PERF_ROUNDS; the paper ran ~547 rounds.",
    )


def _table4(results: PerfResults, c: _Claims) -> str:
    table = results.latency_percentiles()
    # a region that never published or never retrieved has no median
    pub = [row.get("publication", [None])[0] for row in table.values()]
    ret = [row.get("retrieval", [None])[0] for row in table.values()]
    near = [m for region, m in zip(table, ret) if region in _NEAR_REGIONS and m]
    far = [m for region, m in zip(table, ret) if region not in _NEAR_REGIONS and m]
    c.at_least("min_publication_over_retrieval",
               _pick(min, [_ratio(p, r) for p, r in zip(pub, ret)]), 5,
               "publication is an order of magnitude slower than retrieval")
    c.within("publication_median_worst_s", _worst(pub, 50), 10, 90,
             "publication medians land in the paper's tens-of-seconds band")
    c.within("retrieval_median_worst_s", _worst(ret, 3.75), 1.5, 6,
             "retrieval medians land in the paper's seconds band")
    c.at_least("fastest_region_margin",
               _ratio(min(far, default=None), min(near, default=None)), 1.0,
               "eu_central_1 has the fastest retrieval (as in the paper)")
    medians = {region: m for region, m in zip(table, ret) if m is not None}
    slowest = max(medians, key=medians.__getitem__, default=None)
    c.target("perf.slowest_region_is_far",
             None if slowest is None else float(slowest in _FAR_REGIONS),
             "the slowest retrieval region is af-south, ap-southeast or sa-east")
    publications = [r.total_duration for r in results.all_publications()]
    for q, paper in ((90, 112.3), (95, 138.1)):
        c.info(f"publication_p{q}_s",
               percentile(publications, q) if publications else None, paper,
               f"all-region publication p{q} (known deviation 1)")
    return render_table(
        "Table 4 — latency percentiles p50/p90/p95 (seconds)",
        ["region", "pub (ours)", "pub (paper)", "ret (ours)", "ret (paper)"],
        [
            (
                region,
                " / ".join(f"{x:.1f}" for x in row.get("publication", [0, 0, 0])),
                " / ".join(f"{x:.1f}" for x in _LATENCIES[region][0]),
                " / ".join(f"{x:.2f}" for x in row.get("retrieval", [0, 0, 0])),
                " / ".join(f"{x:.2f}" for x in _LATENCIES[region][1]),
            )
            for region, row in table.items()
        ],
    )


def _fig09abc(results: PerfResults, c: _Claims) -> str:
    receipts = results.all_publications()
    overall = Cdf.from_samples(r.total_duration for r in receipts)
    walk = Cdf.from_samples(r.walk_duration for r in receipts)
    batch = Cdf.from_samples(r.rpc_batch_duration for r in receipts)
    walk_share = mean([r.walk_duration / r.total_duration for r in receipts])
    batch_under_2 = batch.probability_at(2.0)
    batch_over_5 = 1.0 - batch.probability_at(5.0 - 0.01)
    c.within("walk_share", walk_share, 0.75, 0.99,
             f"DHT walk dominates publication (measured {walk_share:.0%}, paper 87.9%)")
    c.within("rpc_batch_under_2s", batch_under_2, 0.2, 0.7,
             f"RPC batch: {batch_under_2:.0%} under 2 s (paper 43.3%)")
    c.within("rpc_batch_over_5s", batch_over_5, 0.3, 0.8,
             f"RPC batch: {batch_over_5:.0%} at/over 5 s (paper 53.7%)")
    c.band("publication_p50_s", "perf.publication_p50_s", overall.value_at(0.5),
           "overall publication median in the tens of seconds")
    # the registry's median interpolates; the CDF's is a sample
    c.target("perf.publication_p50_s", percentile([r.total_duration for r in receipts], 50),
             "median publication latency, all regions pooled (paper 33.8 s)")
    return "\n\n".join([
        render_cdf("Fig 9a — overall publication duration "
                   "(paper p50/p90/p95 = 33.8/112.3/138.1 s)",
                   overall, grid=[10, 20, 40, 80, 160]),
        render_cdf("Fig 9b — publication DHT walk duration (paper: ~87.9% of overall delay)",
                   walk, grid=[10, 20, 40, 80, 160]),
        render_cdf("Fig 9c — provider-record RPC batch duration "
                   "(paper: 43.3% < 2 s; 53.7% >= 5 s; spikes at 5 s / 45 s)",
                   batch, grid=[1, 2, 5, 10, 20, 45]),
    ])


def _fig09def(results: PerfResults, c: _Claims) -> str:
    receipts = results.all_retrievals()
    overall = Cdf.from_samples(r.total_duration for r in receipts)
    single_walk = Cdf.from_samples(
        duration for r in receipts
        for duration in (r.provider_walk_duration, r.peer_walk_duration) if duration > 0
    )
    both_walks = Cdf.from_samples(r.dht_walks_duration for r in receipts)
    fetch = Cdf.from_samples(r.fetch_duration for r in receipts)
    operations = len(receipts) + len(results.all_publications())
    c.target("perf.retrieval_success_rate",
             operations / (operations + results.failures),
             "100% retrieval success (paper reports the same)")
    c.at_most("single_walk_p50_s", single_walk.value_at(0.5), 1.0,
              f"single walk median {single_walk.value_at(0.5)*1000:.0f} ms "
              "is sub-second (paper 622 ms)")
    c.at_least("both_walks_under_2s", both_walks.probability_at(2.0), 0.5,
               f"both walks < 2 s for >=50% of retrievals "
               f"(measured {both_walks.probability_at(2.0):.0%})")
    c.at_least("fetch_under_1_26s", fetch.probability_at(1.26), 0.9,
               f"fetch: {fetch.probability_at(1.26):.0%} under 1.26 s (paper >99%)")
    c.at_least("retrieval_min_s", overall.xs[0], 1.0,
               "retrieval floor at the 1 s Bitswap window")
    durations = [r.total_duration for r in receipts]
    for q, value in zip((50, 90, 95), percentiles(durations, [50, 90, 95])):
        c.target(f"perf.retrieval_p{q}_s", value,
                 f"retrieval p{q}, all regions pooled (Table 4 Total row)")
    c.target("perf.retrieval_cdf_ks", ks_against_reference(durations, RETRIEVAL_CDF_FIG9D),
             "KS distance to the digitized Fig 9d retrieval CDF")
    return "\n\n".join([
        render_cdf("Fig 9d — overall retrieval duration "
                   "(paper p50/p90/p95 = 2.90/4.34/4.74 s; floor 1 s Bitswap window)",
                   overall, grid=[1, 2, 3, 4, 5, 8]),
        render_cdf("Fig 9e — single DHT walk duration "
                   "(paper median 622 ms; both walks < 2 s for 50% of retrievals)",
                   single_walk, grid=[0.25, 0.5, 1, 2, 4]),
        render_cdf("Fig 9e' — both DHT walks combined", both_walks, grid=[0.5, 1, 2, 4]),
        render_cdf("Fig 9f — content fetch duration "
                   "(paper: >99% under 1.26 s for the 0.5 MB object)",
                   fetch, grid=[0.25, 0.5, 1, 1.26, 2]),
    ])


def _fig10(results: PerfResults, c: _Claims) -> str:
    receipts = results.all_retrievals()
    with_window = Cdf.from_samples(retrieval_stretch(r, True) for r in receipts)
    without_window = Cdf.from_samples(retrieval_stretch(r, False) for r in receipts)
    # Per-region Fig 10b check for the well-connected region.
    eu = [retrieval_stretch(r, False) for r in results.retrievals.get("eu_central_1", [])]
    eu_under_2 = _ratio(sum(1 for stretch in eu if stretch < 2), len(eu))
    c.within("stretch_p50", with_window.value_at(0.5), 3.0, 6.0,
             f"median stretch with window {with_window.value_at(0.5):.1f} "
             "is ~4 (paper 4.3): the cost of decentralization")
    c.at_least("window_over_no_window_p50",
               _ratio(with_window.value_at(0.5), without_window.value_at(0.5)), 1.0,
               "dropping the Bitswap window lowers stretch across the board")
    c.at_least("eu_under_2_floor", eu_under_2, 0.1,
               "eu_central stretch < 2 for "
               + ("no" if eu_under_2 is None else f"{eu_under_2:.0%} of")
               + " retrievals without the window (paper: 80%; our EU walks are slower "
               "relative to dial+fetch than the paper's, see EXPERIMENTS.md)")
    c.info("eu_stretch_under_2_share", eu_under_2, 0.80,
           "eu_central retrievals at stretch < 2 without the window (known deviation 2)")
    return "\n\n".join([
        render_cdf("Fig 10a — stretch incl. Bitswap window "
                   "(paper: majority of retrievals at stretch >= 4)",
                   with_window, grid=[2, 3, 4, 6, 8], unit="x"),
        render_cdf("Fig 10b — stretch without the Bitswap window "
                   "(paper: < 2 for 80% of eu_central retrievals)",
                   without_window, grid=[1.5, 2, 3, 4], unit="x"),
    ])


# -- gateway dataset (Figs 4b, 6, 11, Table 5) -----------------------------------

_USER_COUNTRIES = {"US": 0.504, "CN": 0.319, "HK": 0.066, "CA": 0.046, "JP": 0.017}
#: The paper's Table 5: median latency (s), traffic share, request share.
_CACHE_TIERS = {
    CacheTier.NGINX: (0.0, 0.464, 0.460),
    CacheTier.NODE_STORE: (0.008, 0.380, 0.402),
    CacheTier.NON_CACHED: (4.04, 0.156, 0.138),
}


def _fig04b(dataset: tuple[ColumnarTrace, ReplayResult], c: _Claims) -> str:
    trace, result = dataset
    series = [
        (window * 300.0, stop - start)
        for start, stop, window in window_slices(trace.timestamps, 300.0)
    ]
    counts = [count for _, count in series]
    c.at_least("bins", len(series), 280, "the day is fully covered in 5-minute bins")
    c.at_least("peak_over_trough", _ratio(max(counts), min(counts)), 1.5,
               "demand is diurnal: peak bin at least 1.5x the trough bin")
    c.at_least("min_bin_requests", min(counts), 1,
               "no empty bins (the gateway is busy all day, as in Fig 4b)")
    c.target("gateway.requests_per_user", result.requests_per_user,
             "requests per distinct user over the day (paper 7.1 M / 101 k)")
    c.target("gateway.requests_per_cid", result.requests_per_cid,
             "requests per distinct CID over the day (paper 7.1 M / 274 k)")
    return render_series(
        "Fig 4b — gateway requests per 5-min bin (gateway clock, PST)",
        [(start, f"{count:6d} requests") for start, count in series],
        every=12,  # print hourly
    ) + (
        f"\nday total: {result.n_requests} requests from {result.user_count} "
        f"users over {result.cid_count} CIDs, "
        f"{result.total_bytes / 1e12:.2f} TB (paper: 7.1 M / 101 k / 274 k / 6.57 TB "
        f"at scale 1)"
    )


def _fig06(dataset: tuple[ColumnarTrace, ReplayResult], c: _Claims) -> str:
    trace, _ = dataset
    countries = trace.user_countries
    requests = Counter(countries[user] for user in trace.user_ids)
    shares = {country: count / len(trace) for country, count in requests.most_common()}
    c.at_least("us_cn_lead_margin", _lead_margin(shares, ["US", "CN"]), 1.0,
               "US then CN lead (paper: 50.4% / 31.9%)")
    c.at_most("us_share_deviation", abs(shares.get("US", 0) - _USER_COUNTRIES["US"]), 0.05,
              "US share within 5 points of the paper")
    c.within("countries", len(shares), 40, 70, "~59 countries send requests")
    # the figure counts requests; the paper's user shares count distinct users
    users = Counter(countries[user] for user in set(trace.user_ids))
    c.target("gateway.user_share_us", _ratio(users["US"], sum(users.values())),
             "US share of distinct users (paper 50.4%)")
    c.target("gateway.user_share_cn", _ratio(users["CN"], sum(users.values())),
             "CN share of distinct users (paper 31.9%)")
    return render_share_table(
        "Fig 6 — gateway request share by user country", shares, top=8,
        reference=_USER_COUNTRIES,
    )


def _fig11(dataset: tuple[ColumnarTrace, ReplayResult], c: _Claims) -> str:
    trace, result = dataset
    sizes = [trace.cid_sizes[cid] for cid in trace.cid_ids]
    _, latencies = request_latencies(trace, result.config)
    latency, size = Cdf.from_samples(latencies), Cdf.from_samples(sizes)
    correlation = pearson_correlation(sizes, latencies)
    bins = [
        (w.window * result.config.window_s, w.nginx + w.node_store, w.non_cached)
        for w in result.windows
    ]
    under_250ms = latency.probability_at(0.25)
    under_100k = size.probability_at(100 * 1024)
    c.at_least("served_under_250ms", under_250ms, 0.6,
               f"{under_250ms:.0%} of requests served under 250 ms (paper 76%)")
    c.within("object_size_p50_kib", size.value_at(0.5) / 1024, 300, 1200,
             f"object-size median {size.value_at(0.5)/1024:.0f} kB in the paper's"
             " range (664.59 kB)")
    c.at_most("objects_under_100k", under_100k, 0.40,
              f"{under_100k:.0%} of objects below 100 kB (paper 20.9%)")
    c.at_least("min_bin_cached_share",
               min((hit / (hit + miss) for _, hit, miss in bins if hit + miss > 50),
                   default=None),
               0.5, "cache-hit fraction stays high across every 30-min bin")
    c.info("size_latency_abs_r", abs(correlation), 0.13,
           f"size/latency |r| = {abs(correlation):.2f} (paper 0.13): latency is "
           "drawn from the tier alone, so this cannot fail (known deviation 8)")
    # the CDF above weighs objects by request; the paper's sizes are the corpus's
    corpus = trace.cid_sizes
    c.target("gateway.object_size_median_kb", percentile(corpus, 50) / 1000.0,
             "median object size over the CID corpus, kB (paper 664.59)")
    c.target("gateway.object_size_over_100kb",
             _ratio(sum(1 for size in corpus if size > 100_000), len(corpus)),
             "CIDs in the corpus larger than 100 kB (paper 79.1%)")
    return "\n\n".join([
        render_cdf("Fig 11a — upstream response latency "
                   "(paper: 46% at 0 s; 76% under 250 ms; node-store hits < 24 ms)",
                   latency, grid=[0.0, 0.024, 0.25, 1.0, 4.0]),
        render_cdf("Fig 11a — bytes per request (paper: median 664.59 kB; 79.1% above 100 kB)",
                   size, grid=[100 * 1024, 664 * 1024, 10 * 1024 * 1024], unit="B"),
        render_series(
            "Fig 11b — cached vs non-cached requests per 30-min bin",
            [
                (start, f"cached={cached:6d}  non-cached={non_cached:5d} "
                        f"({cached / (cached + non_cached):5.1%} cached)")
                for start, cached, non_cached in bins
            ],
            every=4,
        ),
        f"size/latency Pearson r = {correlation:.3f} (paper: 0.13 — "
        "latency is size-agnostic)",
    ])


def render_tier_table(rows: Sequence[TierSummary]) -> str:
    """Table 5. A tier the paper has no column for (``Shed``, ours)
    shows ``-`` there, and is left out when it served nothing."""
    table = []
    for row in rows:
        paper = _CACHE_TIERS.get(row.tier)
        if paper is None and row.request_share == 0:
            continue
        latency, traffic, requests = ("-", "-", "-") if paper is None else (
            f"{paper[0]:.3f} s", f"{paper[1]:5.1%}", f"{paper[2]:5.1%}"
        )
        table.append((
            row.tier.value, f"{row.median_latency:.3f} s", latency,
            f"{row.traffic_share:5.1%}", traffic, f"{row.request_share:5.1%}", requests,
        ))
    return render_table(
        "Table 5 — gateway cache tiers (measured vs paper)",
        ["tier", "median latency", "paper", "traffic", "paper", "requests", "paper"], table,
    )


def _tier_row(result: ReplayResult, tier: CacheTier) -> TierSummary:
    """Table 5's row for ``tier``; a tier that served nothing is all 0."""
    name = tier.name.lower()  # the tier's key in ReplayResult
    if not result.tier_counts[name]:
        return TierSummary(tier, 0.0, 0.0, 0.0)
    return TierSummary(
        tier=tier,
        median_latency=result.tier_percentile(name, 50),
        traffic_share=result.tier_bytes[name] / result.total_bytes,
        request_share=result.tier_counts[name] / result.n_requests,
    )


def _table5(dataset: tuple[ColumnarTrace, ReplayResult], c: _Claims) -> str:
    trace, result = dataset
    rows = [_tier_row(result, tier) for tier in CacheTier]
    nginx, node_store, non_cached = rows[:3]
    combined = result.combined_hit_rate
    sites = len({code for code in trace.referrer_codes if code > 0})
    c.at_most("latency_ordering_margin",
              _pick(max, [_ratio(nginx.median_latency, node_store.median_latency),
                          _ratio(node_store.median_latency, non_cached.median_latency)]), 1.0,
              "latency ordering: nginx < node store < non-cached")
    c.at_most("node_store_p50_s",
              node_store.median_latency if nginx.median_latency == 0.0 else None, 0.024,
              "nginx hits are effectively free; node store in single-digit ms")
    c.within("non_cached_p50_s", non_cached.median_latency, 2.0, 8.0,
             "non-cached median is seconds (paper 4.04 s)")
    c.target("gateway.combined_hit_rate", combined,
             f"combined hit rate {combined:.0%} exceeds 80% (paper: >80%)")
    c.at_least("cached_over_non_cached_requests",
               _ratio(min(nginx.request_share, node_store.request_share),
                      non_cached.request_share),
               1.0, "non-cached requests are the smallest class (paper 13.8%)")
    c.target("gateway.nginx_request_share", nginx.request_share,
             "requests served by the nginx cache (paper 46.0%)")
    c.target("gateway.node_store_request_share", node_store.request_share,
             "requests served by the IPFS node store (paper 40.2%)")
    c.target("gateway.referred_share", result.referred_share,
             "about half the traffic arrives via third-party referrers")
    c.target("gateway.semi_popular_referral_share", result.semi_popular_referral_share,
             "referred traffic from the semi-popular sites (paper 70.6%)")
    c.info("node_store_traffic_share", node_store.traffic_share, 0.38,
           "node-store share of bytes served (known deviation 5)")
    return render_tier_table(rows) + (
        f"\ncombined cache hit rate: {combined:.1%} (paper: >80%)\n"
        f"referred traffic: {result.referred_share:.1%} (paper 51.8%), "
        f"of which {result.semi_popular_referral_share:.1%} from "
        f"{sites} semi-popular sites "
        f"(paper 70.6% / 72 sites)"
    )


# -- ablations (DESIGN.md §5): each its own dataset of small worlds ---------------


#: Every ablation's arms as world inputs, by the label its table shows:
#: ``ScenarioConfig`` fields that already exist (``LookupConfig.alpha`` /
#: ``k``, ``NodeConfig.parallel_discovery``, ``nat_peers_in_dht``), or a
#: ``(name, value)`` patch of a :mod:`repro.simnet.compact` constant the
#: builder reads. No arm edits a world after it is built.
KNOCKOUTS: dict[str, dict[Any, Mapping[str, Any] | tuple[str, Any]]] = {
    "ablation.alpha": {
        a: {"node_config": NodeConfig(lookup=LookupConfig(alpha=a))} for a in (1, 3, 6)
    },
    "ablation.client_server": {
        # the default world keeps NAT'ed peers as stale servers; here they fill up to half a bucket
        "pre-v0.5 (NAT'ed peers are servers)": ("STALE_FRACTION", 0.5),
        "post-v0.5 (NAT'ed peers are clients)": {"nat_peers_in_dht": False},
    },
    "ablation.hydra": {
        "plain DHT": {},
        "with hydra booster (140 heads)": ("HYDRA_HEADS", 140),
    },
    "ablation.parallel_lookup": {
        "sequential (Bitswap then DHT)": {"node_config": NodeConfig(parallel_discovery=False)},
        "parallel (Bitswap + DHT race)": {"node_config": NodeConfig(parallel_discovery=True)},
    },
    "ablation.replication": {
        k: {"node_config": NodeConfig(lookup=LookupConfig(k=k))} for k in (1, 2, 5, 20)
    },
}


@contextmanager
def patched(name: str, value: Any) -> Iterator[None]:
    """``repro.simnet.compact.<name>`` set to ``value`` for the block and
    restored however the block ends."""
    saved = getattr(compact, name)
    setattr(compact, name, value)
    try:
        yield
    finally:
        setattr(compact, name, saved)


def _arm_world(knockout, *world: Any, **scenario: Any) -> Scenario:
    """``build_world(*world, **scenario)`` under one arm's knock-out."""
    if isinstance(knockout, tuple):
        with patched(*knockout):
            return build_world(*world, **scenario)
    return build_world(*world, **scenario, **knockout)


def _timed_walks(scenario: Scenario, targets: int, prefix: bytes) -> tuple[list[float], int]:
    """Latencies and failed RPCs of ``targets`` closest-peers walks from
    the EU vantage, cold each time."""
    node = scenario.vantage["eu_central_1"]
    latencies: list[float] = []
    failures = 0

    def walks():
        nonlocal failures
        for index in range(targets):
            key = key_for_cid(make_cid(b"%s-target-%d" % (prefix, index)))
            start = scenario.sim.now
            _, stats = yield from node.dht.walk_closest(key)
            latencies.append(scenario.sim.now - start)
            failures += stats.rpcs_failed
            node.disconnect_all()

    scenario.sim.run_process(walks())
    return latencies, failures


def run_alpha(config: FiguresConfig, n_peers: int = 800, walks: int = 18):
    """Closest-peers walk latencies per lookup concurrency α (the paper
    keeps Kademlia's α = 3, Section 3.2)."""
    return {
        alpha: _timed_walks(_arm_world(
            knockout, n_peers, config.seeded(2000 + alpha), "alpha-pop", ["eu_central_1"],
        ), walks, b"alpha")[0]
        for alpha, knockout in KNOCKOUTS["ablation.alpha"].items()
    }


def _ablation_alpha(results: dict[int, list[float]], c: _Claims) -> str:
    medians = {alpha: percentile(lat, 50) for alpha, lat in results.items()}
    c.at_least("serial_over_alpha3_p50", _ratio(medians[1], medians[3]), 1.0,
               f"α=3 beats serial lookups ({medians[3]:.0f}s vs {medians[1]:.0f}s)")
    c.at_least("alpha6_over_alpha3_p50", _ratio(medians[6], medians[3]), 0.4,
               "raising α from 3 to 6 shows diminishing returns "
               f"({medians[6]:.0f}s vs {medians[3]:.0f}s)")
    return render_table(
        "Ablation — closest-peers walk latency vs lookup concurrency α",
        ["alpha", "median", "p90"],
        [(alpha, f"{medians[alpha]:.1f} s", f"{percentile(results[alpha], 90):.1f} s")
         for alpha in sorted(results)],
    )


def run_client_server(config: FiguresConfig, n_peers: int = 800, walks: int = 15):
    """Walks with NAT'ed peers as DHT servers filling up to half of each
    bucket (pre-v0.5) vs demoted to clients by AutoNAT (Section 6.4)."""
    return {
        regime: _timed_walks(_arm_world(
            knockout, n_peers, config.seeded(3000), "cs-pop", ["eu_central_1"],
            with_churn=False,
        ), walks, b"cs")
        for regime, knockout in KNOCKOUTS["ablation.client_server"].items()
    }


def _ablation_client_server(results: dict[str, tuple[list[float], int]], c: _Claims) -> str:
    (pre_lat, pre_fail), (post_lat, post_fail) = results.values()
    pre, post = percentile(pre_lat, 50), percentile(post_lat, 50)
    c.at_most("post_over_pre_p50", _ratio(post, pre), 0.75,
              f"excluding NAT'ed peers speeds walks up substantially "
              f"({post:.0f}s vs {pre:.0f}s median)")
    c.at_most("post_over_pre_failed_rpcs", _ratio(post_fail, pre_fail), 1.0,
              f"and slashes failed RPCs ({post_fail} vs {pre_fail})")
    return render_table(
        "Ablation — walk latency with vs without the client/server split",
        ["routing-table regime", "median walk", "p90 walk", "failed RPCs"],
        [(name, f"{percentile(lat, 50):.1f} s", f"{percentile(lat, 90):.1f} s", failures)
         for name, (lat, failures) in results.items()],
    )


def run_gateway_cache(config: FiguresConfig, scale: int = 150):
    """(nginx request share, combined hit rate) per cache size — 1 % to
    30 % of the corpus — over the same day of traffic (Section 6.3)."""
    trace = generate_columnar_trace(
        GatewayTraceConfig(scale=scale), derive_rng(config.seeded(99), "trace")
    )
    corpus = sum(trace.cid_sizes)
    results = {}
    for fraction in (0.01, 0.05, 0.15, 0.30):
        tiers, _ = resolve_tiers(trace, max(1, int(corpus * fraction)))
        nginx = tiers.count(TIER_NGINX)
        hits = nginx + tiers.count(TIER_NODE_STORE)
        results[fraction] = (nginx / len(tiers), hits / len(tiers))
    return results


def _ablation_gateway_cache(results: dict[float, tuple[float, float]], c: _Claims) -> str:
    nginx = [share for share, _ in results.values()]
    c.at_most("largest_hit_share_drop", max(a - b for a, b in zip(nginx, nginx[1:])), 0.02,
              "nginx hit share grows monotonically with cache size")
    c.at_least("smallest_cache_hit_share", nginx[0], 0.15,
               "even a small cache absorbs a meaningful share of requests")
    c.at_most("gain_from_15_to_30_percent", results[0.30][0] - results[0.15][0], 0.15,
              "returns diminish: 30% cache adds little over 15%")
    return render_table(
        "Ablation — gateway cache size vs hit rates",
        ["cache size", "nginx hit share", "combined hit rate"],
        [(f"{fraction:.0%} of corpus", f"{share:5.1%}", f"{combined:5.1%}")
         for fraction, (share, combined) in results.items()],
    )


def run_hydra(config: FiguresConfig, n_peers: int = 700, rounds: int = 15):
    """Provider-walk latency with and without a Hydra booster (Section 8)
    contributing 140 always-on heads, 20 % of the DHT's identities."""
    seed = config.seeded(5000)
    results = {}
    for name, knockout in KNOCKOUTS["ablation.hydra"].items():
        scenario = _arm_world(
            knockout, n_peers, seed, "hydra-pop", ["eu_central_1", "us_west_1"]
        )
        publisher, getter = scenario.vantage["eu_central_1"], scenario.vantage["us_west_1"]
        rng = derive_rng(seed, "content")
        walk_durations: list[float] = []
        failures = 0

        def publish_and_find():
            nonlocal failures
            yield from publisher.publish_peer_record()
            for _ in range(rounds):
                root, _ = yield from publisher.add_and_publish(rng.randbytes(65536))
                getter.disconnect_all()
                start = scenario.sim.now
                records, stats = yield from getter.dht.find_providers(root)
                walk_durations.append(scenario.sim.now - start)
                # a lost record is the worst failure
                failures += stats.rpcs_failed + (0 if records else 10)

        scenario.sim.run_process(publish_and_find())
        results[name] = (walk_durations, failures)
    return results


def _ablation_hydra(results: dict[str, tuple[list[float], int]], c: _Claims) -> str:
    (plain, _), (boosted, _) = results.values()
    c.at_least("plain_over_boosted_p50",
               _ratio(percentile(plain, 50), percentile(boosted, 50)), 1.0,
               f"the booster speeds up content discovery "
               f"({percentile(boosted, 50):.2f}s vs {percentile(plain, 50):.2f}s median)")
    c.at_most("boosted_over_plain_p90",
              _ratio(percentile(boosted, 90), percentile(plain, 90)), 1.25,
              "and trims the tail")
    return render_table(
        "Ablation — provider-walk latency with vs without a hydra booster",
        ["configuration", "median walk", "p90 walk", "failed RPCs"],
        [(name, f"{percentile(walks, 50):.2f} s", f"{percentile(walks, 90):.2f} s", failures)
         for name, (walks, failures) in results.items()],
    )


def run_parallel_lookup(config: FiguresConfig, n_peers: int = 900, rounds: int = 3):
    """Retrieval totals and network RPCs with the DHT walk after the
    Bitswap window vs racing it (``NodeConfig.parallel_discovery``,
    the trade Section 6.2 proposes)."""
    seed = config.seeded(4000)
    results = {}
    for name, knockout in KNOCKOUTS["ablation.parallel_lookup"].items():
        scenario, perf = perf_dataset(
            n_peers, rounds, seed=seed, run_seed=seed, label="par-pop", **knockout
        )
        results[name] = (
            [r.total_duration for r in perf.all_retrievals()], scenario.net.stats.rpcs_sent
        )
    return results


def _ablation_parallel_lookup(results: dict[str, tuple[list[float], int]], c: _Claims) -> str:
    (seq_totals, seq_rpcs), (par_totals, par_rpcs) = results.values()
    saved = percentile(seq_totals, 50) - percentile(par_totals, 50)
    c.within("p50_saved_s", saved, 0.4, 2.0,
             f"parallel discovery cuts the median retrieval by {saved:.2f}s "
             "(roughly the 1 s Bitswap window, as Section 6.2 predicts)")
    c.at_least("parallel_over_sequential_rpcs", _ratio(par_rpcs, seq_rpcs), 0.95,
               "the speedup costs extra network requests")
    return render_table(
        "Ablation — sequential vs parallel content discovery",
        ["strategy", "retrieval p50", "retrieval p90", "network RPCs"],
        [(name, f"{percentile(totals, 50):.2f} s", f"{percentile(totals, 90):.2f} s", rpcs)
         for name, (totals, rpcs) in results.items()],
    )


#: The fate of a record over a republish interval in a population whose
#: sessions are shorter than the 12 h republish timer (Section 5.3).
_HOLDER_DEATH_PROBABILITY = 0.6


def run_replication(config: FiguresConfig, n_peers: int = 700, objects: int = 15):
    """(surviving, published) objects per replication factor k after
    60 % of record holders depart for good, no republish (why Section
    3.1 picks k = 20)."""
    results = {}
    for k, knockout in KNOCKOUTS["ablation.replication"].items():
        scenario = _arm_world(
            knockout, n_peers, config.seeded(1000 + k), "ablation-pop",
            ["eu_central_1", "us_west_1"], with_churn=False,
        )
        publisher, getter = scenario.vantage["eu_central_1"], scenario.vantage["us_west_1"]
        rng = derive_rng(config.seeded(k), "objects")
        death_rng = derive_rng(config.seeded(k), "deaths")
        roots = []

        def publish_all():
            yield from publisher.publish_peer_record()
            for _ in range(objects):
                payload = rng.getrandbits(256).to_bytes(32, "big") * 64
                roots.append((yield from publisher.add_and_publish(payload))[0])

        scenario.sim.run_process(publish_all())
        world = scenario.world
        # only an attached node can hold a record; deaths are drawn in peer order
        for node in sorted(world.nodes.values(), key=lambda n: world.index_of(n.host.peer_id)):
            if (node.provider_store.record_count()
                    and death_rng.random() < _HOLDER_DEATH_PROBABILITY):
                node.host.set_online(False)
        surviving = 0

        def check_all():
            nonlocal surviving
            for root in roots:
                getter.disconnect_all()
                try:
                    records, _ = yield from getter.dht.find_providers(root)
                except Exception:  # noqa: BLE001 - an unfindable record
                    records = []
                surviving += bool(records)

        scenario.sim.run_process(check_all())
        results[k] = (surviving, len(roots))
    return results


def _ablation_replication(results: dict[int, tuple[int, int]], c: _Claims) -> str:
    rate = {k: found / total for k, (found, total) in results.items()}
    c.at_least("k20_survival", rate[20], 0.95,
               f"k=20 keeps every record discoverable ({rate[20]:.0%})")
    c.at_most("k1_survival", rate[1], 0.75,
              f"k=1 loses a large share of records ({rate[1]:.0%})")
    c.at_most("low_over_high_k_survival",
              _pick(max, [_ratio(rate[1], rate[5]), _ratio(rate[2], rate[20])]), 1.0,
              "survival improves with replication (why the paper picked 20)")
    return render_table(
        f"Ablation — record survival after {_HOLDER_DEATH_PROBABILITY:.0%} of "
        "holders depart permanently, no republish",
        ["k", "surviving", "rate"],
        [(k, f"{found}/{total}", f"{found / total:5.1%}")
         for k, (found, total) in results.items()],
    )


# -- the registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One paper item: the dataset it reads and how it is rendered and
    graded from that dataset's results."""

    name: str
    dataset: str
    #: ``render(results, claims) -> body``, adding its rows to ``claims``.
    render: Callable[[Any, _Claims], str]

    def build(self, results: Any) -> tuple[str, list[Claim]]:
        claims = _Claims(self.name)
        return self.render(results, claims), claims.rows


#: ablation -> (what runs its small worlds, what renders the result)
_ABLATIONS = {
    "ablation.alpha": (run_alpha, _ablation_alpha),
    "ablation.client_server": (run_client_server, _ablation_client_server),
    "ablation.gateway_cache": (run_gateway_cache, _ablation_gateway_cache),
    "ablation.hydra": (run_hydra, _ablation_hydra),
    "ablation.parallel_lookup": (run_parallel_lookup, _ablation_parallel_lookup),
    "ablation.replication": (run_replication, _ablation_replication),
}

FIGURES: tuple[Figure, ...] = (
    Figure("fig04a", "crawl", _fig04a),
    Figure("fig04b", "gateway", _fig04b),
    Figure("fig05", "deployment", _fig05),
    Figure("fig06", "gateway", _fig06),
    Figure("fig07", "deployment", _fig07),
    Figure("fig08", "crawl", _fig08),
    Figure("fig09abc", "perf", _fig09abc),
    Figure("fig09def", "perf", _fig09def),
    Figure("fig10", "perf", _fig10),
    Figure("fig11", "gateway", _fig11),
    Figure("table1", "perf", _table1),
    Figure("table2", "deployment", _table2),
    Figure("table3", "deployment", _table3),
    Figure("table4", "perf", _table4),
    Figure("table5", "gateway", _table5),
    *(Figure(name, name, render) for name, (_, render) in _ABLATIONS.items()),
)

#: dataset -> what produces the results its figures render, at the
#: bench's seeds and rng labels.
RUNNERS: dict[str, Callable[[FiguresConfig], Any]] = {
    "perf": lambda config: perf_dataset(
        config.perf_peers, config.perf_rounds, seed=config.seed,
        run_seed=config.seeded(7), label="bench-pop",
    )[1],
    "deployment": lambda config: deployment_dataset(
        config.population_peers, seed=config.seed, label="bench-analysis-pop"
    )[1],
    "crawl": lambda config: crawl_dataset(
        config.crawl_peers, config.crawl_hours, config.crawl_interval_s,
        seed=config.seed, run_seed=config.seeded(13), label="bench-crawl-pop",
    ),
    "gateway": lambda config: gateway_dataset(config.gateway_scale, seed=config.seeded(99)),
    **{name: run for name, (run, _) in _ABLATIONS.items()},
}


def build_dataset(dataset: str, results: Any) -> list[tuple[str, str, list[Claim]]]:
    """``(name, body, claims)`` of every figure that reads ``dataset``."""
    return [
        (figure.name, *figure.build(results))
        for figure in FIGURES if figure.dataset == dataset
    ]


def render_dataset(dataset: str, results: Any) -> str:
    """The bodies of ``dataset``'s figures, as its subcommand prints them."""
    return "\n\n".join(body for _, body, _ in build_dataset(dataset, results))


def render_phases(tracer: Tracer) -> str:
    """The Fig 9 walk/fetch split read off a traced perf run's spans, as
    the ``trace`` subcommand prints it."""
    records = records_from_tracer(tracer)
    tables = [
        render_table(title, ["phase", "total s", "share", "spans"], [
            (row.phase, f"{row.total_s:8.1f}", f"{row.share:6.1%}", row.count)
            for row in breakdown(records)
        ]) + "\n"
        for title, breakdown in (
            ("Publication phases — from recorded spans (§6.1)", publication_breakdown),
            ("Retrieval phases — from recorded spans (§6.2)", retrieval_breakdown),
        )
    ]
    return "\n".join([
        *tables,
        f"DHT walk share of publication time: {walk_share(records):.1%}"
        " (paper §6.1: 87.9%)",
        f"spans recorded: {len(records)} ({len(tracer.open_spans())} left open)",
    ])


def _run_cell(dataset: str, config: FiguresConfig) -> list[tuple[str, str, list[Claim]]]:
    return build_dataset(dataset, RUNNERS[dataset](config))


def run_figures(config: FiguresConfig, workers: int = 1) -> GradedReport:
    """Every figure of the registry at ``config``: one cell per dataset
    and per ablation, bodies and claims in registry order."""
    cells = [
        Cell(f"figures[{dataset}]", _run_cell, (dataset, config))
        for dataset in dict.fromkeys(figure.dataset for figure in FIGURES)
    ]
    built = {
        name: (body, claims)
        for rows in run_cells(cells, workers=workers)
        for name, body, claims in rows
    }
    return GradedReport(
        "figures", config,
        [
            {"figure": figure.name, "dataset": figure.dataset,
             "body_sha256": hashlib.sha256(built[figure.name][0].encode()).hexdigest()}
            for figure in FIGURES
        ],
        ("figure", "dataset", "body_sha256"),
        [claim for figure in FIGURES for claim in built[figure.name][1]],
        body="\n\n".join(built[figure.name][0] for figure in FIGURES),
    )

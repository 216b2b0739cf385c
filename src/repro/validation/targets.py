"""Machine-readable registry of the paper's reported quantities.

Each :class:`PaperTarget` pins one number from the paper's evaluation
(Sections 4-6) with a pointer to its table/figure and a tolerance band
for grading our reproduction against it. The bands encode how tightly
a scaled-down simulation can be expected to land on a number measured
over the live network: structural shares generated by calibrated
samplers get tight bands, order statistics of small-sample latency
runs get wide ones (the known deviations in EXPERIMENTS.md document
why the wide ones are wide). The key's prefix names the paper dataset
(``peer.``, ``gateway.``, ``perf.``); the ``figures`` run grades every
row once, in the figure that reads its data
(:mod:`repro.experiments.figures`).

Grading semantics by ``kind``:

- ``relative`` — relative error vs. ``paper_value``; PASS within
  ``pass_tol``, WARN within ``warn_tol``;
- ``at_least`` — the paper states a floor; PASS at or above
  ``paper_value``, WARN within ``warn_tol`` relative shortfall;
- ``distance`` — the measured value is already a CDF distance in
  [0, 1] (KS statistic vs. a digitized figure); graded against caps
  ``pass_tol`` / ``warn_tol``; ``paper_value`` is the ideal 0;
- ``ordering`` — a structural claim (which region is slowest); the
  measured value is 1.0 when the claim holds. A miss grades WARN,
  never FAIL: a single-seed ordering flip is noise, not infidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.validation.compare import (
    Grade,
    ReferenceCdf,
    grade_at_least,
    grade_distance,
    grade_relative_error,
)
from repro.workloads.gateway_trace import TOTAL_CIDS, TOTAL_REQUESTS, TOTAL_USERS

@dataclass(frozen=True)
class PaperTarget:
    """One reported quantity with its provenance and tolerance band."""

    key: str
    description: str
    source: str  # the paper table/figure/section the number comes from
    paper_value: float
    kind: str = "relative"
    pass_tol: float = 0.10
    warn_tol: float = 0.25
    unit: str = ""

    def grade(self, measured: float | None) -> tuple[float | None, Grade]:
        """(error, grade) of a measured value against this target; a
        quantity the run could not define (``None``) FAILs."""
        if measured is None:
            return None, Grade.FAIL
        if self.kind == "relative":
            return grade_relative_error(
                measured, self.paper_value, self.pass_tol, self.warn_tol
            )
        if self.kind == "at_least":
            return grade_at_least(measured, self.paper_value, self.warn_tol)
        if self.kind == "distance":
            return grade_distance(measured, self.pass_tol, self.warn_tol)
        if self.kind == "ordering":
            held = measured >= 1.0
            return (0.0 if held else 1.0), (Grade.PASS if held else Grade.WARN)
        raise ValueError(f"unknown target kind: {self.kind!r}")


#: Digitized Figure 9d (retrieval duration CDF, all regions pooled).
#: Anchors: the Table 4 total percentiles (p50 2.90 s, p90 4.34 s,
#: p95 4.74 s), the eu_central_1 median (1.81 s) read as ~p8 of the
#: pooled distribution, and interpolated quartiles off the figure.
RETRIEVAL_CDF_FIG9D = ReferenceCdf(
    points=(
        (1.0, 0.01),
        (1.6, 0.05),
        (1.81, 0.08),
        (2.2, 0.25),
        (2.90, 0.50),
        (3.6, 0.75),
        (4.34, 0.90),
        (4.74, 0.95),
        (6.0, 0.99),
        (8.0, 1.0),
    )
)


TARGETS: tuple[PaperTarget, ...] = (
    # ---------------------------------------------------------------- peer
    PaperTarget(
        key="peer.country_share_us",
        description="share of peers located in the United States",
        source="Fig 5 / Section 5.1",
        paper_value=0.285,
        pass_tol=0.10, warn_tol=0.20,
    ),
    PaperTarget(
        key="peer.country_share_cn",
        description="share of peers located in China",
        source="Fig 5 / Section 5.1",
        paper_value=0.242,
        pass_tol=0.10, warn_tol=0.20,
    ),
    PaperTarget(
        key="peer.multihoming_share",
        description="peers advertising addresses in multiple countries",
        source="Section 5.1",
        paper_value=0.088,
        pass_tol=0.15, warn_tol=0.30,
    ),
    PaperTarget(
        key="peer.top10_as_share",
        description="cumulative IP share of the ten largest ASes",
        source="Table 2 / Fig 7d",
        paper_value=0.649,
        pass_tol=0.08, warn_tol=0.15,
    ),
    PaperTarget(
        key="peer.top100_as_share",
        description="cumulative IP share of the hundred largest ASes",
        source="Section 5.2 / Fig 7d",
        paper_value=0.906,
        pass_tol=0.05, warn_tol=0.10,
    ),
    PaperTarget(
        key="peer.cloud_ip_share",
        description="fraction of peer IPs hosted in cloud providers",
        source="Table 3",
        paper_value=0.023,
        pass_tol=0.15, warn_tol=0.30,
    ),
    PaperTarget(
        key="peer.never_reachable_share",
        description="peers never reachable over the whole campaign",
        source="Section 5.3 / Fig 7b",
        paper_value=1 / 3,
        pass_tol=0.10, warn_tol=0.20,
    ),
    PaperTarget(
        key="peer.undialable_fraction",
        description="mean fraction of crawled peers that are undialable",
        source="Fig 4a / Section 5.3 (45.5 % of addresses)",
        paper_value=0.455,
        pass_tol=0.12, warn_tol=0.25,
    ),
    PaperTarget(
        key="peer.session_under_8h",
        description="observed DHT sessions shorter than eight hours",
        source="Section 5.3 / Fig 8",
        paper_value=0.876,
        pass_tol=0.12, warn_tol=0.25,
    ),
    # ------------------------------------------------------------- gateway
    PaperTarget(
        key="gateway.user_share_us",
        description="share of gateway users located in the United States",
        source="Fig 6 / Section 4.2",
        paper_value=0.504,
        pass_tol=0.08, warn_tol=0.15,
    ),
    PaperTarget(
        key="gateway.user_share_cn",
        description="share of gateway users located in China",
        source="Fig 6 / Section 4.2",
        paper_value=0.319,
        pass_tol=0.08, warn_tol=0.15,
    ),
    PaperTarget(
        key="gateway.requests_per_user",
        description="requests per distinct user over the day",
        source="Section 4.2 (7.1 M requests / 101 k users)",
        paper_value=TOTAL_REQUESTS / TOTAL_USERS,
        pass_tol=0.10, warn_tol=0.20,
    ),
    PaperTarget(
        key="gateway.requests_per_cid",
        description="requests per distinct CID over the day",
        source="Section 4.2 (7.1 M requests / 274 k CIDs)",
        paper_value=TOTAL_REQUESTS / TOTAL_CIDS,
        pass_tol=0.25, warn_tol=0.40,
    ),
    PaperTarget(
        key="gateway.nginx_request_share",
        description="requests served from the nginx cache tier",
        source="Table 5",
        paper_value=0.460,
        pass_tol=0.12, warn_tol=0.25,
    ),
    PaperTarget(
        key="gateway.node_store_request_share",
        description="requests served from the IPFS node store tier",
        source="Table 5",
        paper_value=0.402,
        pass_tol=0.08, warn_tol=0.15,
    ),
    PaperTarget(
        key="gateway.combined_hit_rate",
        description="combined cache hit rate (nginx + node store)",
        source="Section 6.3 (reported as > 80 %)",
        paper_value=0.80,
        kind="at_least",
        warn_tol=0.05,
    ),
    PaperTarget(
        key="gateway.referred_share",
        description="traffic arriving via third-party referrers",
        source="Section 6.3, Gateway Referrals",
        paper_value=0.518,
        pass_tol=0.05, warn_tol=0.10,
    ),
    PaperTarget(
        key="gateway.semi_popular_referral_share",
        description="referred traffic from the 72 semi-popular sites",
        source="Section 6.3, Gateway Referrals",
        paper_value=0.706,
        pass_tol=0.05, warn_tol=0.10,
    ),
    PaperTarget(
        key="gateway.object_size_median_kb",
        description="median requested object size over the CID corpus",
        source="Fig 11a / Section 6.3",
        paper_value=664.59,
        pass_tol=0.08, warn_tol=0.15,
        unit="kB",
    ),
    PaperTarget(
        key="gateway.object_size_over_100kb",
        description="fraction of objects larger than 100 kB",
        source="Fig 11a / Section 6.3",
        paper_value=0.791,
        pass_tol=0.05, warn_tol=0.12,
    ),
    # --------------------------------------------------------- performance
    PaperTarget(
        key="perf.publication_p50_s",
        description="median publication latency, all regions pooled",
        source="Table 4 (Total row)",
        paper_value=33.8,
        pass_tol=0.20, warn_tol=0.35,
        unit="s",
    ),
    PaperTarget(
        key="perf.retrieval_p50_s",
        description="median retrieval latency, all regions pooled",
        source="Table 4 (Total row)",
        paper_value=2.90,
        pass_tol=0.10, warn_tol=0.20,
        unit="s",
    ),
    PaperTarget(
        key="perf.retrieval_p90_s",
        description="90th-percentile retrieval latency, all regions",
        source="Table 4 (Total row)",
        paper_value=4.34,
        pass_tol=0.15, warn_tol=0.30,
        unit="s",
    ),
    PaperTarget(
        key="perf.retrieval_p95_s",
        description="95th-percentile retrieval latency, all regions",
        source="Table 4 (Total row)",
        paper_value=4.74,
        pass_tol=0.20, warn_tol=0.35,
        unit="s",
    ),
    PaperTarget(
        key="perf.retrieval_success_rate",
        description="fraction of publish/retrieve operations succeeding",
        source="Section 6.2 (all retrievals succeeded)",
        paper_value=0.99,
        kind="at_least",
        warn_tol=0.05,
    ),
    PaperTarget(
        key="perf.retrieval_cdf_ks",
        description="KS distance to the digitized Fig 9d retrieval CDF",
        source="Fig 9d (digitized via Table 4 anchors)",
        paper_value=0.0,
        kind="distance",
        pass_tol=0.22, warn_tol=0.35,
    ),
    PaperTarget(
        key="perf.slowest_region_is_far",
        description="slowest retrieval region is af-south/ap-southeast/sa-east",
        source="Table 4 / Fig 9a (af_south and ap_southeast slowest)",
        paper_value=1.0,
        kind="ordering",
    ),
)

TARGETS_BY_KEY: dict[str, PaperTarget] = {t.key: t for t in TARGETS}

if len(TARGETS_BY_KEY) != len(TARGETS):  # pragma: no cover - registry bug
    raise RuntimeError("duplicate target keys in the fidelity registry")

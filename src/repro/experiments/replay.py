"""Grade the batched full-day gateway replay against Table 5 / Fig 11.

:func:`run_replay_grid` runs one replay per configured backend (the
``model`` arm grades the paper's fitted latency distributions at any
scale up to the full 7.1 M-request day; the ``fleet`` arm routes the
miss tail through the real PR-8 overload stack) and
:func:`grade_replay` turns the merged results into PASS/WARN/FAIL rows
using the same comparators and tolerance bands as the conformance
registry (:mod:`repro.validation.targets`):

- **Table 5 tier shares** — nginx 0.460, node store 0.402, combined
  hit rate > 0.80;
- **Fig 11 / Table 5 latencies** (``model`` arm) — non-cached median
  4.04 s, node-store median 8 ms and hard 24 ms cap;
- **usage** — requests per user 70.3, daily bytes 6.57 TB / scale,
  referral shares 51.8 % / 70.6 %;
- **overload semantics** (``fleet`` arm) — answered fraction and zero
  duplicate upstream launches (consistent hashing + single flight).

Both arms share the stage-2 tier resolution, so front-end decisions
are identical by construction — pinned by the equivalence tests in
``tests/experiments/test_replay_exp.py`` (sheds fold back into
misses), not by a graded row.

CID-demand rows (catalog coverage, requests per CID) are graded when
the trace runs in full-catalog mode — the generator then guarantees
every CID of the universe is requested, matching the paper's 274 k
*requested* CIDs — and reported ungraded otherwise (pure Zipf sampling
leaves ~35 % of the universe untouched, a generator artifact the
Table 5 / Fig 11 rows do not depend on). TTFB percentiles stay
informational.
"""

from __future__ import annotations

import dataclasses

from repro.gateway.replay import ReplayConfig, ReplayResult, run_replay
from repro.validation.compare import (
    Grade,
    grade_at_least,
    grade_distance,
    grade_relative_error,
)
from repro.validation.report import Claim, GradedReport
from repro.validation.targets import TARGETS_BY_KEY
from repro.workloads.gateway_trace import (
    TOTAL_CIDS,
    TOTAL_REQUESTS,
    GatewayTraceConfig,
)

#: Paper values and tolerance bands of the rows the conformance
#: registry has no target for; the others are graded through
#: ``TARGETS_BY_KEY["gateway.<metric>"]``.
DAILY_BYTES = (6.57e12, 0.15, 0.30)
NON_CACHED_MEDIAN_S = (4.04, 0.10, 0.25)
NODE_STORE_MEDIAN_S = (0.008, 0.25, 0.50)
NODE_STORE_MAX_S = 0.024
#: Tighter than ``gateway.requests_per_cid`` (0.25 / 0.40), which has
#: to absorb the ~35 % of the universe pure Zipf sampling never
#: touches: this row is graded only on full-catalog traces, where every
#: CID is requested and the ratio is the paper's by construction.
REQUESTS_PER_CID = (TOTAL_REQUESTS / TOTAL_CIDS, 0.05, 0.15)
CATALOG_COVERAGE_FLOOR = (1.0, 0.02)
#: fleet arm: the replayed day must not be shed away.
ANSWERED_FRACTION_FLOOR = (0.75, 0.15)


def bench_replay_configs() -> list[ReplayConfig]:
    """The grid frozen into ``BENCH_replay.json`` (CI-sized).

    The ``model`` arm runs at scale 120 with the production 1800 s
    windows — 48 cells, so the worker-sharded merge is exercised hard;
    the ``fleet`` arm runs at scale 2000 with 6 h windows, small enough
    that building a fresh simulated world per window stays CI-cheap.
    """
    return [
        ReplayConfig(
            seed=42,
            trace=GatewayTraceConfig(scale=120, full_catalog=True),
            miss_backend="model",
        ),
        ReplayConfig(
            seed=42,
            trace=GatewayTraceConfig(scale=2000),
            miss_backend="fleet",
            window_s=21600.0,
            # Half the corpus fits: ~300 genuine misses reach the
            # simulated fleet over the day — enough to exercise the
            # admission/coalescing/hint plumbing, cheap enough for CI.
            cache_fraction_of_corpus=0.5,
        ),
    ]


def full_day_config(seed: int = 42) -> ReplayConfig:
    """The paper-scale day: 7.1 M requests, model miss tail.

    The cache budget is calibrated so the nginx hit share lands on the
    paper's 46 % (Table 5): a sweep over corpus fractions at scale=1
    gave 0.002→0.398, 0.006→0.447, **0.010→0.467**, 0.02→0.492,
    0.15→0.551; 0.010 is the closest point to 0.460 (1.5 % off).  The
    hot head of the Zipf corpus is what nginx actually retains, so the
    calibrated budget is far below the small-scale default.
    """
    return ReplayConfig(
        seed=seed,
        trace=GatewayTraceConfig(scale=1, full_catalog=True),
        miss_backend="model",
        cache_fraction_of_corpus=0.01,
    )


def day_grid(
    seed: int = 42, scale: int = 1, full_catalog: bool = False, **overrides
) -> list[ReplayConfig]:
    """A one-arm grid replaying the day at ``scale``. The calibrated
    cache budget of :func:`full_day_config` only applies at paper
    scale; any other scale sizes its cache from the corpus."""
    if scale == 1:
        config = full_day_config(seed)
    else:
        config = ReplayConfig(
            seed=seed,
            trace=GatewayTraceConfig(scale=scale, full_catalog=full_catalog),
        )
    return [dataclasses.replace(config, **overrides)]


def run_replay_grid(
    configs: list[ReplayConfig], workers: int = 1
) -> list[ReplayResult]:
    """Run every configured replay (each already shards per-window)."""
    return [run_replay(config, workers) for config in configs]


#: Held by ``benchmarks/e2e/seams.py``; the types are
#: :class:`repro.validation.report.Claim` and ``GradedReport``.
ReplayGradeRow = Claim
ReplayReport = GradedReport

#: One cell per run (backend arm); ``windows`` is the Fig 11b series.
CELL_FIELDS = (
    "backend:", "config.seed:", "config.trace.scale:", "config.window_s",
    "n_requests:", "user_count:", "cid_count:", "total_bytes:",
    "served_bytes", "tier_counts", "tier_bytes", "referred_count",
    "semi_popular_count", "overload_totals", "failovers", "down_errors",
    "windows",
)


def _grade_run(result: ReplayResult) -> list[Claim]:
    """The claims of one run, scoped by its backend."""
    rows: list[Claim] = []
    backend = result.backend

    def rel(metric: str, measured: float, spec: tuple[float, float, float]):
        expected, pass_tol, warn_tol = spec
        rows.append(Claim.graded(
            f"replay.{metric}", measured, expected,
            grade_relative_error(measured, expected, pass_tol, warn_tol),
            scope=backend,
        ))

    def floor(metric: str, measured: float, spec: tuple[float, float]):
        floor_value, warn_slack = spec
        rows.append(Claim.graded(
            f"replay.{metric}", measured, floor_value,
            grade_at_least(measured, floor_value, warn_slack), scope=backend,
        ))

    def info(metric: str, measured: float, expected: float | None = None):
        rows.append(
            Claim(f"replay.{metric}", measured, expected, None, scope=backend)
        )

    model = backend == "model"

    def trace_row(metric, measured, spec=None):
        """Paper-facing trace statistics: graded on the model arm
        (which runs at a statistically meaningful scale), reported
        ungraded on the fleet arm (whose CI-sized universe of a few
        dozen CIDs makes share estimates meaninglessly noisy). Without
        a ``spec``, value, band and comparator are those of the
        registry target of the same name."""
        target = TARGETS_BY_KEY[f"gateway.{metric}"] if spec is None else None
        if not model:
            info(metric, measured, target.paper_value if target else spec[0])
        elif target is None:
            rel(metric, measured, spec)
        else:
            rows.append(Claim.graded(
                f"replay.{metric}", measured, target.paper_value,
                target.grade(measured), scope=backend,
            ))

    # Table 5 tier shares. Sheds (fleet arm only) count against the
    # denominator, exactly like the SHED tier in the access log.
    trace_row("nginx_request_share", result.nginx_share)
    trace_row("node_store_request_share", result.node_store_share)
    trace_row("combined_hit_rate", result.combined_hit_rate)

    # Usage (Section 4.2) — scaled to the configured day fraction.
    trace_row("requests_per_user", result.requests_per_user)
    expected_bytes, pass_tol, warn_tol = DAILY_BYTES
    trace_row(
        "daily_bytes",
        float(result.total_bytes),
        (expected_bytes / result.config.trace.scale, pass_tol, warn_tol),
    )
    trace_row("referred_share", result.referred_share)
    trace_row(
        "semi_popular_referral_share", result.semi_popular_referral_share
    )
    # CID-demand structure. With the full-catalog trace mode on, the
    # generator guarantees the whole universe is requested — the
    # paper's 274 k *requested* CIDs — so both rows graduate from
    # informational to graded; without it, the Zipf tail's ~35 % gap
    # makes them generator artifacts, reported ungraded as before.
    if model and result.config.trace.full_catalog:
        coverage = result.cid_count / result.config.trace.n_cids
        floor("catalog_coverage", coverage, CATALOG_COVERAGE_FLOOR)
        rel("requests_per_cid", result.requests_per_cid, REQUESTS_PER_CID)
    else:
        info("unique_cids_requested", float(result.cid_count))
        info("requests_per_cid", result.requests_per_cid, REQUESTS_PER_CID[0])

    if model:
        # Fig 11 / Table 5 latencies: the fitted distributions, graded
        # at whatever scale the run used (scale=1 = the paper's day).
        rel(
            "non_cached_median_s",
            result.tier_percentile("non_cached", 50),
            NON_CACHED_MEDIAN_S,
        )
        rel(
            "node_store_median_s",
            result.tier_percentile("node_store", 50),
            NODE_STORE_MEDIAN_S,
        )
        store_max = (
            result.node_store_latencies[-1]
            if len(result.node_store_latencies) else 0.0
        )
        overshoot = max(0.0, (store_max - NODE_STORE_MAX_S) / NODE_STORE_MAX_S)
        rows.append(Claim.graded(
            "replay.node_store_max_s", store_max, NODE_STORE_MAX_S,
            grade_distance(overshoot, 0.01, 0.10), scope=backend,
        ))
        for q in (50, 90, 95, 99):
            info("ttfb_p%d_s" % q, result.latency_percentile(q))
        info("non_cached_p90_s", result.tier_percentile("non_cached", 90))
        info("non_cached_p99_s", result.tier_percentile("non_cached", 99))
    else:
        floor(
            "answered_fraction",
            result.answered_fraction,
            ANSWERED_FRACTION_FLOOR,
        )
        duplicates = result.overload_totals.get("duplicate_launches", 0)
        rows.append(Claim(
            "replay.fleet_duplicate_launches", float(duplicates), 0.0,
            Grade.PASS if duplicates == 0 else Grade.FAIL, scope=backend,
        ))
        info("shed_requests", float(result.tier_counts["shed"]))
        info(
            "coalesced_joins",
            float(result.overload_totals.get("coalesced_joins", 0)),
        )
        info(
            "hint_fetches",
            float(result.overload_totals.get("hint_fetches", 0)),
        )
        info("non_cached_p50_s", result.tier_percentile("non_cached", 50))
        info("non_cached_p99_s", result.tier_percentile("non_cached", 99))
    return rows


def grade_replay(results: list[ReplayResult]) -> GradedReport:
    """Grade every run into one report. Front-end tier equivalence
    between the arms holds by construction (both replay the same
    stage-2 tier sequence; the fleet arm may only recolor misses into
    sheds) and is pinned by the test suite rather than re-derived
    here."""
    claims: list[Claim] = []
    for result in results:
        claims.extend(_grade_run(result))
    return GradedReport(
        "replay", [result.config for result in results], results,
        CELL_FIELDS, claims,
    )

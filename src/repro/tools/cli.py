"""Command-line experiment runner.

Usage::

    python -m repro.tools.cli perf --peers 1500 --rounds 5
    python -m repro.tools.cli crawl --peers 600 --hours 6 --export crawl.csv
    python -m repro.tools.cli attack --bench --workers 4 --export attack.json

``perf``, ``deployment``, ``crawl`` and ``gateway`` run one dataset of
:mod:`repro.experiments.datasets` at the given size, print the figures
:mod:`repro.experiments.figures` builds from it and optionally export
the raw dataset; ``chaos``, ``chaos-recovery`` and ``trace`` print
their own tables.
``figures``, ``validate``, ``attack``, ``nat-sweep``, ``flash-crowd``,
``scale-crawl`` and ``replay`` are *graded*: one entry each in
:data:`GRADED`, all run by the one path of :mod:`repro.tools.graded`
(exit 1 when a claim FAILs).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.adversary import (
    ATTACK_KINDS,
    bench_attack_config,
    grade_matrix,
    matrix_config,
    run_attack_matrix,
)
from repro.experiments.chaos import (
    ChaosConfig,
    run_chaos_experiment,
    run_chaos_pair,
)
from repro.experiments.chaos_recovery import (
    ChaosRecoveryConfig,
    full_resilience_config,
    run_chaos_recovery_pair,
)
from repro.experiments import figures
from repro.experiments.datasets import (
    crawl_dataset,
    deployment_dataset,
    gateway_dataset,
    perf_dataset,
)
from repro.experiments.deployment import CrawlCampaignConfig
from repro.experiments.figures import render_dataset
from repro.experiments.flash_crowd import (
    FlashCrowdConfig,
    bench_overload_config,
    grade_flash_crowd,
    run_flash_crowd,
)
from repro.experiments.nat_sweep import (
    NatSweepConfig,
    bench_nat_config,
    grade_sweep,
    run_nat_sweep,
)
from repro.experiments.replay import (
    bench_replay_configs,
    day_grid,
    grade_replay,
    run_replay_grid,
)
from repro.experiments.scale import (
    ScaleCrawlConfig,
    bench_scale_config,
    run_scale_crawl,
)
from repro.experiments.report import render_table
from repro.node.config import NodeConfig
from repro.resilience import ResilienceConfig
from repro.obs import (
    Observability,
    publication_breakdown,
    records_from_tracer,
    retrieval_breakdown,
    walk_share,
)
from repro.tools import export
from repro.tools.graded import (
    Graded,
    add_graded,
    csv_of,
    flag,
    positive_int,
    run_graded,
    scaled,
)
from repro.validation.conformance import QUICK, config_for_tier, run_conformance
from repro.validation.nat_tier import NatTierConfig, run_nat_tier


def _intensity_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated probabilities, got {text!r}"
        ) from None
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(
                f"intensity must be in [0, 1], got {value}"
            )
    return values


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """The resilience feature-flag group (all default off)."""
    group = parser.add_argument_group(
        "resilience", "graceful-degradation features (default: all off)"
    )
    group.add_argument("--breakers", action="store_true",
                       help="per-peer circuit breakers on dial/RPC failures")
    group.add_argument("--hedging", action="store_true",
                       help="hedge slow walk RPCs and provider dials")
    group.add_argument("--adaptive-timeouts", action="store_true",
                       help="RTT-derived RPC deadlines instead of fixed")
    group.add_argument("--fallbacks", action="store_true",
                       help="degraded-mode Bitswap broadcast + stale serving")


def _resilience_from_args(args) -> ResilienceConfig | None:
    """A :class:`ResilienceConfig` from the flag group, or ``None``
    when no flag was given (leaves the stock disabled config alone)."""
    if not (args.breakers or args.hedging or args.adaptive_timeouts
            or args.fallbacks):
        return None
    return ResilienceConfig(
        breakers=args.breakers,
        hedging=args.hedging,
        adaptive_timeouts=args.adaptive_timeouts,
        fallbacks=args.fallbacks,
    )


#: The graded subcommands (see :mod:`repro.tools.graded`). A new graded
#: experiment is its module plus one entry here.
GRADED = (
    Graded(
        "figures",
        "the paper's Figs 4-11, Tables 1-5 and the six design ablations "
        "at the frozen bench shape, every shape check a graded claim",
        "BENCH_figures.json",
        lambda seed: dataclasses.replace(figures.BENCH, seed=seed),
        lambda: figures.BENCH, figures.run_figures,
    ),
    Graded(
        "validate",
        "paper-fidelity conformance: grade the reproduction against the "
        "paper's reported numbers",
        "BENCH_fidelity.json",
        # the nat tier sweeps its own seeds; the others are re-seedable
        lambda seed, tier: (
            NatTierConfig() if tier == "nat" else config_for_tier(tier, seed)
        ),
        lambda: QUICK,
        lambda config, workers: (
            run_nat_tier if isinstance(config, NatTierConfig) else run_conformance
        )(config, workers),
        [flag("--tier", "tier", "quick = CI scales, full = nightly scales, "
              "nat = NAT-model seed stability",
              choices=("quick", "full", "nat"), default="quick")],
    ),
    Graded(
        "attack",
        "adversarial attack x defense matrix with graded degradation",
        "BENCH_attack.json", matrix_config, bench_attack_config,
        lambda config, workers: grade_matrix(run_attack_matrix(config, workers)),
        [flag("--peers", "n_peers", "world size (default 160)", type=int),
         flag("--retrievals", "retrievals_per_cell",
              "retrievals per matrix cell (default 6)", type=int),
         flag("--attacks", "kinds", "comma-separated attack kinds (default: "
              f"all of {','.join(ATTACK_KINDS)})", type=csv_of(ATTACK_KINDS)),
         flag("--intensity", "intensity", "attack intensity in [0, 1] for "
              "every non-'none' attack (default 1)", type=float)],
    ),
    Graded(
        "nat-sweep",
        "NAT-mode mix x hole-punch adoption x mapping-TTL dialability "
        "sweep, graded vs the paper's 45.5 %%",
        "BENCH_nat.json", NatSweepConfig, bench_nat_config,
        lambda config, workers: grade_sweep(run_nat_sweep(config, workers)),
        [flag("--peers", "n_peers", "backdrop peers per cell", type=int),
         flag("--hours", "crawl_hours", "crawl campaign hours per cell",
              type=float),
         flag("--retrievals", "retrievals_per_cell",
              "retrievals per cell through the NAT'ed pair", type=int)],
    ),
    Graded(
        "flash-crowd",
        "overload storms vs the gateway fleet, stock vs hardened, graded "
        "on spike goodput / sheds / p99",
        "BENCH_overload.json", FlashCrowdConfig, bench_overload_config,
        lambda config, workers: grade_flash_crowd(run_flash_crowd(config, workers)),
        [flag("--gateways", "n_gateways", "fleet size", type=int),
         flag("--object-kib", "object_size", "catalogue object size in KiB",
              type=scaled(int, 1024)),
         flag("--deadline", "deadline_s",
              "client abandon deadline in simulated seconds", type=float),
         flag("--storms", "storms", "comma-separated storm shapes (default: "
              f"{','.join(FlashCrowdConfig.storms)})",
              type=csv_of(FlashCrowdConfig.storms))],
    ),
    Graded(
        "scale-crawl",
        "paper-scale Fig 4a/8 crawl+churn campaign over a compact world "
        "(200 k peers by default), graded vs the paper",
        "BENCH_scale.json", ScaleCrawlConfig, bench_scale_config,
        lambda config, workers: run_scale_crawl(
            dataclasses.replace(config, workers=workers)
        ),
        [flag("--peers", "n_peers", "world size (default 200000)", type=int),
         flag("--hours", "duration_s", "campaign hours (default 12; Fig 8 "
              "needs the full window)", type=scaled(float, 3600.0)),
         flag("--probe-sample", "probe_sample", "keyspace fraction of seen "
              "peers the uptime prober follows (default 0.05)", type=float)],
    ),
    Graded(
        "replay",
        "batched full-day gateway replay graded against Table 5 / Fig 11 "
        "(scale=1 = the paper's 7.1 M requests)",
        "BENCH_replay.json", day_grid, bench_replay_configs,
        lambda configs, workers: grade_replay(run_replay_grid(configs, workers)),
        [flag("--scale", "scale", "trace scale divisor (default 1: the full "
              "7.1 M-request day)", type=positive_int, default=1),
         flag("--backend", "miss_backend", "miss tail: fitted latency model "
              "(default) or a live simulated gateway fleet (PR-8 overload "
              "semantics)", choices=("model", "fleet")),
         flag("--window", "window_s", "batch window in trace seconds "
              "(default 1800, the Fig 11b bin width)", type=float),
         flag("--cache-fraction", "cache_fraction_of_corpus", "nginx cache "
              "budget as a corpus fraction (default: calibrated per scale)",
              type=float),
         flag("--full-catalog", "full_catalog", "spread demand over the "
              "whole CID catalog (grades requests-per-CID and coverage; "
              "always on at --scale 1)", action="store_true")],
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IPFS reproduction experiment runner"
    )
    parser.add_argument("--seed", type=int,
                        help="default 42 (under --bench: the frozen seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    perf = sub.add_parser("perf", help="six-region publish/retrieve experiment")
    perf.add_argument("--peers", type=int, default=1500)
    perf.add_argument("--rounds", type=int, default=5)
    perf.add_argument("--export", metavar="FILE", default=None,
                      help="write per-operation JSONL records")
    perf.add_argument("--trace", metavar="FILE", default=None,
                      help="record sim-time spans and write the JSONL trace")
    _add_resilience_flags(perf)

    deployment = sub.add_parser(
        "deployment", help="population analysis (Figs 5/7, Tables 2/3)"
    )
    deployment.add_argument("--peers", type=int, default=30_000)

    crawl = sub.add_parser("crawl", help="crawler + prober campaign (Figs 4a/8)")
    crawl.add_argument("--peers", type=int, default=500)
    crawl.add_argument("--hours", type=float, default=6.0)
    crawl.add_argument("--interval-minutes", type=float, default=30.0)
    crawl.add_argument("--export", metavar="FILE", default=None,
                       help="write the per-crawl peer CSV")

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweep (retrieval under RPC loss)"
    )
    chaos.add_argument("--peers", type=int, default=300)
    chaos.add_argument("--intensities", type=_intensity_list,
                       default=(0.0, 0.05, 0.1, 0.2, 0.3),
                       help="comma-separated RPC-loss probabilities")
    chaos.add_argument("--retrievals", type=int, default=12,
                       help="retrievals per intensity level")
    chaos.add_argument("--export", metavar="FILE", default=None,
                       help="write per-level JSONL records")
    chaos.add_argument("--trace", metavar="FILE", default=None,
                       help="record sim-time spans and write the JSONL trace")
    chaos.add_argument("--workers", type=int, default=1,
                       help="worker processes sharding (arm, intensity) "
                            "cells; output is identical for any value "
                            "(ignored with --trace, which needs one "
                            "process)")
    _add_resilience_flags(chaos)

    recovery = sub.add_parser(
        "chaos-recovery",
        help="churn x mixed-fault sweep, resilience layer on vs off",
    )
    recovery.add_argument("--peers", type=int, default=300)
    recovery.add_argument("--intensities", type=_intensity_list,
                          default=(0.0, 0.2, 0.3),
                          help="comma-separated overall fault probabilities")
    recovery.add_argument("--retrievals", type=int, default=10,
                          help="retrievals per intensity level")
    recovery.add_argument("--unannounced", type=int, default=3,
                          help="extra cached-but-unannounced retrievals "
                               "per level (only fallbacks can win these)")
    recovery.add_argument("--export", metavar="FILE", default=None,
                          help="write per-level JSONL records")
    recovery.add_argument("--workers", type=int, default=1,
                          help="worker processes sharding (arm, intensity) "
                               "cells; output is identical for any value")

    trace = sub.add_parser(
        "trace", help="traced perf run with per-phase latency breakdown"
    )
    trace.add_argument("--peers", type=int, default=250)
    trace.add_argument("--rounds", type=int, default=2)
    trace.add_argument("--export", metavar="FILE", default=None,
                       help="write the span/event JSONL trace")

    gateway = sub.add_parser("gateway", help="gateway day replay (Fig 11/Table 5)")
    gateway.add_argument("--scale", type=positive_int, default=100,
                         help="divide the 7.1M-request day by this")
    gateway.add_argument("--export", metavar="FILE", default=None,
                         help="write the access-log CSV")

    for entry in GRADED:
        add_graded(sub, entry)
    return parser


def _cmd_perf(args) -> None:
    resilience = _resilience_from_args(args)
    obs = Observability() if args.trace else None
    _, results = perf_dataset(
        args.peers, args.rounds, seed=args.seed, run_seed=args.seed,
        label="cli-pop", obs=obs,
        node_config=None if resilience is None else NodeConfig(resilience=resilience),
    )
    print(render_dataset("perf", results))
    if args.export:
        rows = export.export_perf_dataset(results, args.export)
        print(f"\nwrote {rows} operation records to {args.export}")
    if args.trace:
        rows = export.export_trace(obs.tracer, args.trace)
        print(f"wrote {rows} trace records to {args.trace}")


def _cmd_deployment(args) -> None:
    _, analysis = deployment_dataset(args.peers, seed=args.seed, label="cli-pop")
    print(render_dataset("deployment", analysis))


def _cmd_crawl(args) -> None:
    # --seed picks the world; the campaign keeps its own default seed
    dataset = crawl_dataset(
        args.peers, args.hours, args.interval_minutes * 60.0,
        seed=args.seed, run_seed=CrawlCampaignConfig.seed, label="cli-pop",
    )
    print(render_dataset("crawl", dataset))
    if args.export:
        rows = export.export_crawl_dataset(dataset[1], args.export)
        print(f"\nwrote {rows} crawl rows to {args.export}")


def _fmt_percentiles(level) -> str:
    pcts = level.latency_percentiles()
    return "-" if pcts is None else " / ".join(f"{x:.1f}" for x in pcts)


def _cmd_chaos(args) -> None:
    config = ChaosConfig(
        seed=args.seed,
        n_peers=args.peers,
        intensities=args.intensities,
        retrievals_per_level=args.retrievals,
        resilience=_resilience_from_args(args),
    )
    if args.trace:
        # A shared tracer can't cross process boundaries; trace runs
        # are single-process by construction.
        obs = Observability()
        baseline = run_chaos_experiment(
            dataclasses.replace(config, with_retries=False), obs=obs
        )
        resilient = run_chaos_experiment(config, obs=obs)
    else:
        obs = None
        baseline, resilient = run_chaos_pair(config, workers=args.workers)

    rows = []
    for base, ret in zip(baseline.levels, resilient.levels):
        rows.append((
            f"{base.intensity:.0%}",
            f"{base.success_rate:.0%}", _fmt_percentiles(base),
            f"{ret.success_rate:.0%}", _fmt_percentiles(ret),
            ret.retries_attempted, ret.evictions,
        ))
    print(render_table(
        "Chaos sweep — retrieval under injected RPC loss",
        ["loss", "success (base)", "p50/p90/p95 (base)",
         "success (retry)", "p50/p90/p95 (retry)", "retries", "evictions"],
        rows,
        note=f"{args.retrievals} retrievals per level, {args.peers} peers; "
             "base = fire-and-forget seed stack, retry = backoff stack",
    ))
    if args.export:
        rows_written = export.export_chaos_dataset(
            [baseline, resilient], args.export
        )
        print(f"\nwrote {rows_written} level records to {args.export}")
    if args.trace:
        rows_written = export.export_trace(obs.tracer, args.trace)
        print(f"wrote {rows_written} trace records to {args.trace}")


def _cmd_chaos_recovery(args) -> None:
    config = ChaosRecoveryConfig(
        seed=args.seed,
        n_peers=args.peers,
        intensities=args.intensities,
        retrievals_per_level=args.retrievals,
        unannounced_retrievals=args.unannounced,
    )
    baseline, resilient = run_chaos_recovery_pair(config, workers=args.workers)

    rows = []
    for base, res in zip(baseline.levels, resilient.levels):
        rows.append((
            f"{base.intensity:.0%}",
            f"{base.success_rate:.0%}", _fmt_percentiles(base),
            f"{res.success_rate:.0%}", _fmt_percentiles(res),
            res.breaker_opened, res.hedges_launched,
            f"{res.fallback_hits}/{res.fallback_broadcasts}",
        ))
    flags = full_resilience_config()
    print(render_table(
        "Chaos recovery — churn x mixed faults, resilience on vs off",
        ["faults", "success (off)", "p50/p90/p95 (off)",
         "success (on)", "p50/p90/p95 (on)",
         "breakers", "hedges", "fallback hit/cast"],
        rows,
        note=f"{args.retrievals}+{args.unannounced} retrievals per level, "
             f"{args.peers} peers, churn on; resilience arm: "
             f"breakers={flags.breakers} hedging={flags.hedging} "
             f"adaptive={flags.adaptive_timeouts} "
             f"fallbacks={flags.fallbacks}",
    ))
    if args.export:
        rows_written = export.export_chaos_recovery_dataset(
            [baseline, resilient], args.export
        )
        print(f"\nwrote {rows_written} level records to {args.export}")


def _cmd_trace(args) -> None:
    """Traced perf run; the Fig 9 walk/fetch split, read off the spans."""
    obs = Observability()
    perf_dataset(
        args.peers, args.rounds, seed=args.seed, run_seed=args.seed,
        label="cli-pop", obs=obs,
    )
    records = records_from_tracer(obs.tracer)

    for title, breakdown in (
        ("Publication phases — from recorded spans (§6.1)", publication_breakdown),
        ("Retrieval phases — from recorded spans (§6.2)", retrieval_breakdown),
    ):
        print(render_table(title, ["phase", "total s", "share", "spans"], [
            (row.phase, f"{row.total_s:8.1f}", f"{row.share:6.1%}", row.count)
            for row in breakdown(records)
        ]) + "\n")
    print(f"DHT walk share of publication time: {walk_share(records):.1%}"
          " (paper §6.1: 87.9%)")
    print(f"spans recorded: {len(records)}"
          f" ({len(obs.tracer.open_spans())} left open)")
    if args.export:
        rows = export.export_trace(obs.tracer, args.export)
        print(f"wrote {rows} trace records to {args.export}")


def _cmd_gateway(args) -> None:
    results = gateway_dataset(args.scale, seed=args.seed)
    print(render_dataset("gateway", results))
    if args.export:
        rows = export.export_gateway_log(results.log, args.export)
        print(f"\nwrote {rows} log rows to {args.export}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is None and not getattr(args, "bench", False):
        args.seed = 42
    if "graded" in args:
        return run_graded(args)
    handlers = {
        "perf": _cmd_perf,
        "deployment": _cmd_deployment,
        "crawl": _cmd_crawl,
        "chaos": _cmd_chaos,
        "chaos-recovery": _cmd_chaos_recovery,
        "gateway": _cmd_gateway,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args) or 0


if __name__ == "__main__":
    sys.exit(main())

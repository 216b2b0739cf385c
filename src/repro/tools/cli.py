"""Command-line experiment runner.

Usage::

    python -m repro.tools.cli perf --peers 1500 --rounds 5
    python -m repro.tools.cli crawl --peers 600 --hours 6 --export crawl.csv
    python -m repro.tools.cli attack --bench --workers 4 --export attack.json

Two tables and a ``main``. :data:`DATASETS` — ``perf``, ``deployment``,
``crawl``, ``gateway`` and ``trace`` — run one dataset of
:mod:`repro.experiments.datasets` at the size their flags give, print
the figures :mod:`repro.experiments.figures` builds from it (``trace``:
the phase breakdown read off the run's spans) and optionally write the
raw records. :data:`GRADED` — ``figures``, ``validate``, ``attack``,
``nat-sweep``, ``flash-crowd``, ``scale-crawl``, ``replay``, ``chaos``
and ``chaos-recovery`` — are all run by the one path of
:mod:`repro.tools.graded` (exit 1 when a claim FAILs).
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
from repro.experiments import chaos, figures
from repro.experiments.datasets import (
    crawl_dataset,
    deployment_dataset,
    gateway_dataset,
    perf_dataset,
)
from repro.experiments.deployment import CrawlCampaignConfig
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
from repro.gateway.replay import access_log
from repro.node.config import NodeConfig
from repro.obs import Observability
from repro.tools import export
from repro.tools.graded import (
    Dataset,
    Graded,
    add_dataset,
    add_graded,
    csv_of,
    flag,
    positive_int,
    probability_list,
    run_dataset,
    run_graded,
    scaled,
)
from repro.validation.nat_tier import NatTierConfig, run_nat_tier

#: The flags of both chaos sweeps (``chaos-recovery`` adds one).
CHAOS_FLAGS = [
    flag("--peers", "n_peers", "world size", type=int),
    flag("--intensities", "intensities", "comma-separated per-RPC fault "
         "probabilities to sweep", type=probability_list),
    flag("--retrievals", "retrievals_per_level", "retrievals per (arm, "
         "intensity) level", type=positive_int),
    flag("--arms", "arms", "comma-separated rungs of the "
         f"{' < '.join(chaos.ARMS)} ladder; the last is graded against the "
         "first", type=csv_of(tuple(chaos.ARMS))),
]


def _chaos(config: chaos.ChaosConfig, workers: int):
    return chaos.grade_chaos(config, chaos.run_chaos(config, workers))


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
        "NAT-model seed stability: the crawl-measured undialable share and "
        "AutoNAT agreement at three consecutive seeds (the paper-target "
        "registry is graded by figures)",
        "BENCH_fidelity.json", NatTierConfig, NatTierConfig, run_nat_tier,
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
        # one world = one cell: nothing for --workers to shard
        lambda config, workers: run_scale_crawl(config),
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
    Graded(
        "chaos",
        "retrieval under injected RPC loss in a static world, the seed's "
        "fire-and-forget stack vs the retry stack",
        "BENCH_chaos.json", chaos.ChaosConfig, chaos.ChaosConfig, _chaos,
        CHAOS_FLAGS,
    ),
    Graded(
        "chaos-recovery",
        "churn x mixed faults (loss, resets, malformed replies), the retry "
        "stack vs retries + the resilience layer",
        "BENCH_chaos_recovery.json",
        lambda **fields: dataclasses.replace(chaos.RECOVERY, **fields),
        lambda: chaos.RECOVERY, _chaos,
        [*CHAOS_FLAGS,
         flag("--unannounced", "unannounced_retrievals", "extra cached-but-"
              "unannounced retrievals per level (only the fallback broadcast "
              "can win these)", type=int)],
    ),
)


def _perf(args: argparse.Namespace, obs: Observability | None, resilient: bool = False):
    return perf_dataset(
        args.peers, args.rounds, seed=args.seed, run_seed=args.seed,
        label="cli-pop", obs=obs,
        node_config=NodeConfig(protection="resilient") if resilient else None,
    )[1]


_TRACE = ("trace records", lambda results, obs, path: export.export_trace(obs.tracer, path))

#: The dataset subcommands (see :mod:`repro.tools.graded`).
DATASETS = (
    Dataset(
        "perf", "six-region publish/retrieve experiment",
        [("--peers", dict(type=int, default=1500)),
         ("--rounds", dict(type=int, default=5)),
         ("--resilient", dict(action="store_true", help="every node runs the "
                              "top rung of the chaos ladder: the retry stack "
                              "plus breakers, hedging, adaptive deadlines and "
                              "fallbacks (default: the stock stack)"))],
        lambda args, obs: _perf(args, obs, args.resilient),
        [("export", "write per-operation JSONL records", "operation records",
          lambda results, obs, path: export.export_perf_dataset(results, path)),
         ("trace", "record sim-time spans and write the JSONL trace", *_TRACE)],
    ),
    Dataset(
        "deployment", "population analysis (Figs 5/7, Tables 2/3)",
        [("--peers", dict(type=int, default=30_000))],
        lambda args, obs: deployment_dataset(
            args.peers, seed=args.seed, label="cli-pop"
        )[1],
    ),
    Dataset(
        "crawl", "crawler + prober campaign (Figs 4a/8)",
        [("--peers", dict(type=int, default=500)),
         ("--hours", dict(type=float, default=6.0)),
         ("--interval-minutes", dict(type=float, default=30.0))],
        # --seed picks the world; the campaign keeps its own default seed
        lambda args, obs: crawl_dataset(
            args.peers, args.hours, args.interval_minutes * 60.0,
            seed=args.seed, run_seed=CrawlCampaignConfig.seed, label="cli-pop",
        ),
        [("export", "write the per-crawl peer CSV", "crawl rows",
          lambda results, obs, path: export.export_crawl_dataset(results[1], path))],
    ),
    Dataset(
        "gateway", "gateway day replay (Fig 11/Table 5)",
        [("--scale", dict(type=positive_int, default=100,
                          help="divide the 7.1M-request day by this"))],
        lambda args, obs: gateway_dataset(args.scale, seed=args.seed),
        [("export", "write the access-log CSV", "log rows",
          lambda results, obs, path: export.export_gateway_log(
              access_log(results[0], results[1].config), path))],
    ),
    Dataset(
        "trace", "traced perf run with per-phase latency breakdown",
        [("--peers", dict(type=int, default=250)),
         ("--rounds", dict(type=int, default=2))],
        _perf,
        [("export", "write the span/event JSONL trace", *_TRACE)],
        body=lambda obs: figures.render_phases(obs.tracer),
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IPFS reproduction experiment runner"
    )
    parser.add_argument("--seed", type=int,
                        help="default 42 (under --bench: the frozen seed)")
    sub = parser.add_subparsers(dest="command", required=True)
    for entry in DATASETS:
        add_dataset(sub, entry)
    for entry in GRADED:
        add_graded(sub, entry)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is None and not getattr(args, "bench", False):
        args.seed = 42
    return run_graded(args) if "graded" in args else run_dataset(args)


if __name__ == "__main__":
    sys.exit(main())

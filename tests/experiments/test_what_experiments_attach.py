"""What each graded experiment attaches of its compact worlds.

A compact world attaches in stages (``repro.simnet.compact``): a host
where a peer is named, bucket runs where a FIND_NODE is delivered, a
``RoutingTable`` only where a write changes those runs, a ``DhtNode``
where any other DHT RPC lands. An experiment that attaches a stage it
never reads pays for it in memory at paper scale, so these counts are
pinned per graded entry at its tiny shape (the flags of
``tests/tools/test_cli_graded.py``), and for the crawl at the shape of
the end-to-end benchmark: ``(worlds, hosts, runs, tables, nodes)``,
summed over every world the run builds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import figures
from repro.experiments.deployment import run_crawl_timeseries
from repro.experiments.scale import ScaleCrawlConfig
from repro.experiments.scenario import ScenarioConfig
from repro.simnet.compact import CompactWorld, build_compact_world
from repro.tools import cli
from repro.utils.rng import derive_rng
from repro.validation.nat_tier import run_nat_tier
from repro.workloads.compact import generate_compact_population
from repro.workloads.population import PopulationConfig
from tests.helpers import TINY_FIGURES
from tests.tools.test_cli_graded import TINY_FLAGS, TINY_NAT_TIER


@pytest.fixture
def worlds(monkeypatch):
    """Every ``CompactWorld`` built while the test runs."""
    built: list[CompactWorld] = []
    init = CompactWorld.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CompactWorld, "__init__", recording)
    return built


def census(worlds: list[CompactWorld]) -> tuple[int, int, int, int, int]:
    return (
        len(worlds),
        sum(len(world._hosts) for world in worlds),
        sum(world.materialized for world in worlds),
        sum(len(world._tables) for world in worlds),
        sum(len(world.nodes) for world in worlds),
    )


#: (worlds, hosts, runs, tables, nodes) per graded entry at its tiny
#: shape. ``attack`` runs the eclipse, which writes every honest
#: server's table and so attaches its node; ``attack-censor`` is the
#: censor plan, which reads hosts only (it attached a node per server,
#: 214, when it read them through nodes). The gateway entries build no
#: compact world.
ATTACHED = {
    "figures": (2, 140, 72, 50, 49),
    "validate": (3, 180, 149, 118, 95),
    "attack": (4, 241, 214, 214, 214),
    "attack-censor": (4, 241, 108, 108, 105),
    "nat-sweep": (12, 480, 396, 368, 368),
    "flash-crowd": (0, 0, 0, 0, 0),
    "scale-crawl": (1, 200, 100, 0, 0),
    "replay": (0, 0, 0, 0, 0),
    "chaos": (2, 76, 54, 54, 54),
    "chaos-recovery": (2, 160, 34, 34, 34),
}


def _argv(name: str) -> list[str]:
    if name == "attack-censor":
        return ["attack", "--peers", "80", "--retrievals", "1", "--attacks", "censor"]
    return [name, *TINY_FLAGS[name]]


def test_every_graded_entry_is_pinned():
    assert set(ATTACHED) - {"attack-censor"} == {entry.name for entry in cli.GRADED}


@pytest.mark.parametrize("name", sorted(ATTACHED))
def test_graded_entry_attaches(name, worlds, monkeypatch, capsys):
    monkeypatch.setattr(cli, "GRADED", tuple(
        dataclasses.replace(each, run=lambda config, workers: run_nat_tier(
            dataclasses.replace(config, **TINY_NAT_TIER), workers,
        )) if each.name == "validate" else each
        for each in cli.GRADED
    ))
    monkeypatch.setattr(figures, "BENCH", TINY_FIGURES)
    monkeypatch.setattr(figures, "FIGURES", tuple(  # the ablations shrink in test_figures.py
        figure for figure in figures.FIGURES if not figure.name.startswith("ablation.")
    ))
    command, *flags = _argv(name)
    cli.main([command, "--workers", "1", *flags])  # every world in this process
    capsys.readouterr()
    assert census(worlds) == ATTACHED[name]


def test_bench_crawl_attaches_runs_only(worlds):
    """The end-to-end benchmark's ``crawl`` (2 800 peers, two crawls,
    seed 42): every visited peer answers from its runs, and no table
    or node is built."""
    compact = generate_compact_population(
        PopulationConfig(n_peers=2800), derive_rng(42, "population")
    )
    config = ScaleCrawlConfig(
        n_peers=2800, seed=42, duration_s=3600.0, crawl_interval_s=1800.0,
        bucket_queries=8, probe_sample=0.1,
    )
    world = build_compact_world(
        compact, ScenarioConfig(seed=42), churn_horizon_s=config.duration_s + 3600.0
    )
    run_crawl_timeseries(world, config.campaign())
    assert census(worlds) == (1, 2800, 1718, 0, 0)

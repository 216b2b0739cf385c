"""The FIGURES registry: integrity against DESIGN.md, builds that
survive tiny and degenerate datasets, worker-count independence, and
the Table 5 renderer's ``Shed`` row."""

import dataclasses
import pathlib
import re
from array import array
from functools import partial

import pytest

from repro.experiments import figures
from repro.experiments.figures import FIGURES, RUNNERS, render_tier_table
from repro.gateway.logs import CacheTier, TierSummary
from repro.validation.targets import TARGETS_BY_KEY
from tests.helpers import TINY_FIGURES

DESIGN = (pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
ABLATIONS = {f.name for f in FIGURES if f.name.startswith("ablation.")}

#: The ablations' worlds shrunk through their runners' own size keywords.
TINY_ABLATIONS = {
    "ablation.alpha": partial(figures.run_alpha, n_peers=100, walks=2),
    "ablation.client_server": partial(figures.run_client_server, n_peers=100, walks=2),
    "ablation.gateway_cache": partial(figures.run_gateway_cache, scale=5000),
    "ablation.hydra": partial(figures.run_hydra, n_peers=100, rounds=2),
    "ablation.parallel_lookup": partial(figures.run_parallel_lookup, n_peers=120, rounds=1),
    "ablation.replication": partial(figures.run_replication, n_peers=100, objects=2),
}


def section(number: str) -> str:
    """The text of DESIGN.md's ``## <number>.`` section."""
    start = DESIGN.index(f"\n## {number}. ")
    return DESIGN[start:DESIGN.index("\n## ", start + 1)]


class TestRegistry:
    def test_names_are_unique(self):
        assert len({figure.name for figure in FIGURES}) == len(FIGURES)

    def test_every_dataset_has_a_runner_and_every_runner_a_figure(self):
        assert {figure.dataset for figure in FIGURES} == set(RUNNERS)

    def test_design_index_rows_map_one_to_one_onto_the_registry(self):
        rows = [
            line for line in section("4").splitlines()
            if re.match(r"\| (Fig|Table) ", line)
        ]
        named = [re.findall(r"`([a-z0-9_.]+)`", row.split("|")[-2]) for row in rows]
        assert all(len(names) == 1 for names in named), named
        assert {names[0] for names in named} == {
            figure.name for figure in FIGURES
        } - ABLATIONS

    def test_design_ablation_list_is_the_registry(self):
        listed = re.findall(r"`(ablation\.[a-z_]+)`", section("5"))
        assert sorted(listed) == sorted(ABLATIONS)


@pytest.fixture(scope="module")
def datasets():
    """The ten datasets at the tiny shape (well under a second)."""
    runners = {**RUNNERS, **TINY_ABLATIONS}
    return {name: runner(TINY_FIGURES) for name, runner in runners.items()}


def check_claims(figure, claims):
    keys = [claim.key for claim in claims]
    assert len(set(keys)) == len(keys)
    # a figure's own quantities, or the registry rows it grades
    assert all(key.startswith(figure.name + ".") or key in TARGETS_BY_KEY for key in keys)
    assert all(claim.scope == figure.name for claim in claims)
    assert any(claim.grade is not None for claim in claims)


class TestBuilds:
    @pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
    def test_tiny_dataset_builds_a_body_and_claims(self, figure, datasets):
        body, claims = figure.build(datasets[figure.dataset])
        assert body.startswith("== ")
        check_claims(figure, claims)

    @staticmethod
    def rebuilt(dataset, results):
        claims = []
        for name, _, rows in figures.build_dataset(dataset, results):
            check_claims(next(f for f in FIGURES if f.name == name), rows)
            claims += rows
        return claims

    def test_each_world_ablation_runs_its_knockout_arms(self, datasets):
        # every arm that builds a world is a row of the one table
        assert set(figures.KNOCKOUTS) == ABLATIONS - {"ablation.gateway_cache"}
        for name, arms in figures.KNOCKOUTS.items():
            assert list(datasets[name]) == list(arms), name

    def test_campaign_with_no_hk_or_de_sessions(self, datasets):
        scenario, campaign = datasets["crawl"]
        elsewhere = dataclasses.replace(campaign, sessions=[
            s for s in campaign.sessions if s.group not in ("HK", "DE")
        ])
        keys = [c.key for c in self.rebuilt("crawl", (scenario, elsewhere))]
        assert "fig08.session_count" in keys and "fig08.de_over_hk_median" not in keys

    def test_gateway_log_with_no_referrers(self, datasets):
        trace, result = datasets["gateway"]
        direct = array("h", bytes(2 * len(trace)))  # code 0: no referrer
        nobody = dict(referred_count=0, semi_popular_count=0)
        self.rebuilt("gateway", (
            dataclasses.replace(trace, referrer_codes=direct, **nobody),
            dataclasses.replace(result, **nobody),
        ))

    def test_perf_run_where_one_region_has_no_retrieval(self, datasets):
        results = datasets["perf"]
        claims = self.rebuilt("perf", dataclasses.replace(
            results, retrievals={**results.retrievals, "eu_central_1": []}
        ))
        # what cannot be computed without the region FAILs, by name
        failed = {c.key for c in claims if c.measured is None and c.grade}
        assert {"fig10.eu_under_2_floor", "table4.min_publication_over_retrieval"} <= failed


class TestRun:
    def test_any_worker_count_same_artifact_and_seed_moves_every_world(
        self, monkeypatch, datasets
    ):
        for dataset, runner in TINY_ABLATIONS.items():
            monkeypatch.setitem(RUNNERS, dataset, runner)
        reseeded = dataclasses.replace(TINY_FIGURES, seed=7)
        one = figures.run_figures(reseeded, workers=1)
        three = figures.run_figures(reseeded, workers=3)
        assert one.to_json() == three.to_json()
        assert one.body == three.body and one.body in one.render_text()
        assert "body" not in one.to_json_dict()
        assert [cell["figure"] for cell in one.cells] == [f.name for f in FIGURES]
        # every world moved with the seed; Table 1 only counts operations
        at_42 = {
            name: body
            for dataset, results in datasets.items()
            for name, body, _ in figures.build_dataset(dataset, results)
        }
        assert [name for name, body in at_42.items() if body in one.body] == ["table1"]


def test_tier_table_shows_shed_only_when_it_served_something():
    served = [TierSummary(CacheTier.NGINX, 0.0, 0.25, 0.25),
              TierSummary(CacheTier.NODE_STORE, 0.008, 0.25, 0.25),
              TierSummary(CacheTier.NON_CACHED, 4.0, 0.5, 0.25)]
    stock = render_tier_table(served + [TierSummary(CacheTier.SHED, 0.0, 0.0, 0.0)])
    assert "Shed" not in stock and len(stock.splitlines()) == 3 + 3
    shedding = render_tier_table(served + [TierSummary(CacheTier.SHED, 0.0, 0.0, 0.25)])
    (shed,) = [line for line in shedding.splitlines() if line.startswith("Shed")]
    assert shed.split()[1:] == ["0.000", "s", "-", "0.0%", "-", "25.0%", "-"]

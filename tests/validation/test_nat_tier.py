"""The ``validate`` runner (the nat tier): seed sharding and grading."""

from __future__ import annotations

import json

import pytest

from repro.validation.compare import Grade
from repro.validation.nat_tier import NatTierConfig, run_nat_tier

#: CI-sized: a small world, one crawl snapshot per world, seeds 7-9.
TINY = NatTierConfig(seed=7, n_peers=80, crawl_hours=1.0)


@pytest.fixture(scope="module")
def tiny_report():
    return run_nat_tier(TINY, workers=1)


def test_workers_do_not_change_bytes(tiny_report):
    sharded = run_nat_tier(TINY, workers=2)
    assert sharded.to_json() == tiny_report.to_json()


def test_one_row_and_two_claims_per_seed(tiny_report):
    assert [cell.seed for cell in tiny_report.cells] == [7, 8, 9]
    assert [(claim.key, claim.scope) for claim in tiny_report.claims] == [
        ("nat.undialable", "seed=7"), ("nat.autonat", "seed=7"),
        ("nat.undialable", "seed=8"), ("nat.autonat", "seed=8"),
        ("nat.undialable", "seed=9"), ("nat.autonat", "seed=9"),
    ]


def test_rows_are_seed_sensitive(tiny_report):
    first, second, _ = tiny_report.cells
    assert (first.undialable, first.boxed_peers) != (
        second.undialable, second.boxed_peers
    )


def test_agreement_claims_grade_against_floor(tiny_report):
    for claim in tiny_report.claims:
        if claim.key == "nat.autonat":
            assert claim.expected == 0.95
            assert 0.0 <= claim.measured <= 1.0


def test_overall_and_failed_are_consistent(tiny_report):
    assert tiny_report.failed() == (tiny_report.overall is Grade.FAIL)


def test_json_round_trips(tiny_report):
    data = json.loads(tiny_report.to_json())
    assert data["schema"] == "repro.graded/v1"
    assert data["experiment"] == "nat-tier"
    assert [row["seed"] for row in data["cells"]] == [7, 8, 9]
    assert data["overall"] == tiny_report.overall.value


def test_render_text_lists_every_seed(tiny_report):
    text = tiny_report.render_text()
    for seed in (7, 8, 9):
        assert str(seed) in text
    assert "overall:" in text

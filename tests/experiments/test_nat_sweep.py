"""The NAT dialability sweep: sharding equivalence, cell semantics,
and the graded report contract."""

from __future__ import annotations

import json

import pytest

from repro.experiments.nat_sweep import (
    ADOPTIONS,
    MIXES,
    NatSweepConfig,
    _run_cell,
    grade_sweep,
    run_nat_sweep,
)
from repro.validation.compare import Grade

#: Small enough for CI, big enough that the crawler sees a real mix.
TINY = NatSweepConfig(
    seed=7,
    n_peers=80,
    crawl_hours=1.0,
    retrievals_per_cell=1,
    mixes=("default", "cone_heavy"),
    mapping_ttls=(120.0,),
)


@pytest.fixture(scope="module")
def tiny_results():
    return run_nat_sweep(TINY, workers=1)


@pytest.fixture(scope="module")
def tiny_report(tiny_results):
    return grade_sweep(tiny_results)


class TestSharding:
    def test_workers_do_not_change_bytes(self, tiny_report):
        sharded = grade_sweep(run_nat_sweep(TINY, workers=2))
        assert sharded.to_json() == tiny_report.to_json()

    def test_grid_covers_cross_product(self, tiny_report):
        cells = tiny_report.cells
        assert len(cells) == (
            len(TINY.mixes) * len(ADOPTIONS) * len(TINY.mapping_ttls)
        )
        assert [(c.mix, c.adoption) for c in cells] == [
            ("default", 0.0), ("default", 1.0),
            ("cone_heavy", 0.0), ("cone_heavy", 1.0),
        ]


class TestCellSemantics:
    def test_adoption_changes_punches_not_dialability(self, tiny_results):
        """Hole punching rescues *connections*, not the crawler's raw
        dialability measurement: adoption flips punch counters while
        the undialable share stays put."""
        off = tiny_results.cell("default", 0.0, 120.0)
        on = tiny_results.cell("default", 1.0, 120.0)
        assert off.punches_attempted == 0
        assert on.punches_attempted > 0
        assert on.undialable == off.undialable

    def test_cone_heavy_is_more_dialable(self, tiny_results):
        """More full-cone peers (cold-dialable once their keepalive
        mapping is up) -> fewer undialable DHT entries."""
        default = tiny_results.cell("default", 0.0, 120.0)
        cone = tiny_results.cell("cone_heavy", 0.0, 120.0)
        assert cone.undialable < default.undialable

    def test_boxed_peer_count_is_emergent(self, tiny_results):
        for cell in tiny_results.cells:
            assert 0 < cell.boxed_peers < TINY.n_peers

    def test_cell_is_deterministic(self):
        a = _run_cell(TINY, "default", 1.0, 120.0)
        b = _run_cell(TINY, "default", 1.0, 120.0)
        assert (a.undialable, a.latencies, a.punches_succeeded) == (
            b.undialable, b.latencies, b.punches_succeeded
        )


class TestReport:
    def test_claim_keys(self, tiny_report):
        assert [claim.key for claim in tiny_report.claims] == [
            "nat.undialable_fraction",
            "nat.autonat_agreement",
            "nat.punch_success_rate",
            "nat.relay_fallback_success",
        ]

    def test_overall_is_worst_claim(self, tiny_report):
        grades = [claim.grade for claim in tiny_report.claims]
        if Grade.FAIL in grades:
            assert tiny_report.overall is Grade.FAIL
        assert tiny_report.failed() == (tiny_report.overall is Grade.FAIL)

    def test_json_round_trips(self, tiny_report):
        data = json.loads(tiny_report.to_json())
        assert data["schema"] == "repro.graded/v1"
        assert data["experiment"] == "nat"
        assert len(data["cells"]) == len(tiny_report.cells)
        assert data["overall"] == tiny_report.overall.value

    def test_render_text_mentions_every_mix(self, tiny_report):
        text = tiny_report.render_text()
        for mix in TINY.mixes:
            assert mix in text
        assert "overall:" in text

    def test_unknown_cell_lookup_raises(self, tiny_results):
        with pytest.raises(KeyError):
            tiny_results.cell("default", 0.5, 120.0)


def test_mix_weights_are_normalized():
    for name, mix in MIXES.items():
        assert sum(weight for _, weight in mix) == pytest.approx(1.0), name

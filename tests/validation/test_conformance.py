"""Conformance runner: determinism, sharding equivalence, structure.

These tests run a deliberately tiny configuration (sub-second) so the
suite stays fast; grading quality at real scale is covered by the
seed-sweep test and the CI `validate` job.
"""

import dataclasses
import json

import pytest

from repro.tools.graded import write_atomic
from repro.validation.compare import Grade
from repro.validation.conformance import (
    FULL,
    METRIC_KEYS_BY_DATASET,
    QUICK,
    ValidationConfig,
    config_for_tier,
    grade_measurements,
    run_conformance,
)
from repro.validation.targets import DATASETS, TARGETS

TINY = ValidationConfig(
    tier="quick",
    seed=7,
    population_peers=800,
    crawl_peers=40,
    crawl_hours=2.0,
    crawl_interval_s=1800.0,
    perf_peers=120,
    perf_rounds=1,
    gateway_scale=2000,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_conformance(TINY, workers=1)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tiny_report):
        again = run_conformance(TINY, workers=1)
        assert again.to_json() == tiny_report.to_json()

    def test_workers_do_not_change_results(self, tiny_report):
        sharded = run_conformance(TINY, workers=2)
        assert sharded.to_json() == tiny_report.to_json()

    def test_seed_changes_measurements(self, tiny_report):
        other = run_conformance(
            dataclasses.replace(TINY, seed=8), workers=1
        )
        assert other.to_json() != tiny_report.to_json()


class TestReportStructure:
    def test_covers_every_registered_target(self, tiny_report):
        assert [(c.key, c.scope) for c in tiny_report.claims] == [
            (t.key, t.dataset) for t in TARGETS
        ]
        assert {c.scope for c in tiny_report.claims} == set(DATASETS)

    def test_json_schema(self, tiny_report):
        doc = json.loads(tiny_report.to_json())
        assert doc["schema"] == "repro.graded/v1"
        assert doc["experiment"] == "fidelity"
        assert doc["config"] == dataclasses.asdict(TINY)
        assert doc["cells"] == []
        assert len(doc["claims"]) == len(TARGETS)
        for entry, target in zip(doc["claims"], TARGETS):
            assert set(entry) == {
                "key", "scope", "description", "measured", "expected",
                "error", "grade",
            }
            assert entry["expected"] == round(target.paper_value, 6)
            assert target.source in entry["description"]

    def test_counts_sum_to_metric_count(self, tiny_report):
        grades = [claim.grade for claim in tiny_report.claims]
        tally = tiny_report.render_text().splitlines()[-1]
        assert tally == (
            f"overall: {tiny_report.overall.value} "
            f"({grades.count(Grade.PASS)} PASS / {grades.count(Grade.WARN)} "
            f"WARN / {grades.count(Grade.FAIL)} FAIL)"
        )
        assert tiny_report.failed() == (Grade.FAIL in grades)

    def test_render_text_lists_every_metric(self, tiny_report):
        text = tiny_report.render_text()
        for claim in tiny_report.claims:
            assert claim.key in text

    def test_artifact_round_trips(self, tiny_report, tmp_path):
        path = tmp_path / "fidelity.json"
        write_atomic(str(path), tiny_report.to_json())
        assert path.read_text() == tiny_report.to_json()
        assert list(tmp_path.iterdir()) == [path]


class TestGradeMeasurements:
    def _measurements(self):
        return {t.key: t.paper_value for t in TARGETS}

    def test_paper_values_grade_pass(self):
        report = grade_measurements(QUICK, self._measurements())
        assert all(c.grade is Grade.PASS for c in report.claims)
        assert report.overall is Grade.PASS and not report.failed()

    def test_missing_key_rejected(self):
        broken = self._measurements()
        del broken["peer.country_share_us"]
        with pytest.raises(ValueError, match="missing"):
            grade_measurements(QUICK, broken)

    def test_unknown_key_rejected(self):
        broken = self._measurements()
        broken["peer.bogus"] = 1.0
        with pytest.raises(ValueError, match="no registered target"):
            grade_measurements(QUICK, broken)


class TestTierConfigs:
    def test_tiers_resolve(self):
        assert config_for_tier("quick", seed=5).seed == 5
        assert config_for_tier("quick", seed=5).population_peers == \
            QUICK.population_peers
        assert config_for_tier("full", seed=1).tier == "full"
        assert FULL.population_peers > QUICK.population_peers

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            config_for_tier("nonsense", seed=1)

    def test_metric_keys_partition_targets(self):
        keys = [k for d in DATASETS for k in METRIC_KEYS_BY_DATASET[d]]
        assert keys == [t.key for t in TARGETS]

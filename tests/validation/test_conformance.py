"""The paper-target registry graded inside the ``figures`` run:
determinism, sharding equivalence, structure.

These tests run the four paper datasets at the tiny figures shape
(sub-second) so the suite stays fast; grading quality at real scale is
covered by the seed-sweep test and the CI ``figures`` gate.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.experiments import figures
from repro.tools.graded import write_atomic
from repro.validation.compare import Grade
from repro.validation.targets import TARGETS, TARGETS_BY_KEY
from tests.helpers import TINY_FIGURES

#: registry key prefix -> the datasets whose figures may grade it
DATASETS_BY_PREFIX = {
    "peer": {"deployment", "crawl"}, "gateway": {"gateway"}, "perf": {"perf"},
}


def registry_run(config, workers=1):
    """The ``figures`` run over the paper's datasets (no ablations)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figures, "FIGURES", tuple(
            f for f in figures.FIGURES if not f.name.startswith("ablation.")
        ))
        return figures.run_figures(config, workers=workers)


def registry_rows(report):
    return [claim for claim in report.claims if claim.key in TARGETS_BY_KEY]


@pytest.fixture(scope="module")
def tiny_report():
    return registry_run(TINY_FIGURES)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tiny_report):
        assert registry_run(TINY_FIGURES).to_json() == tiny_report.to_json()

    def test_workers_do_not_change_results(self, tiny_report):
        assert registry_run(TINY_FIGURES, workers=2).to_json() == tiny_report.to_json()

    def test_seed_changes_measurements(self, tiny_report):
        other = registry_run(dataclasses.replace(TINY_FIGURES, seed=8))
        assert [c.measured for c in registry_rows(other)] != [
            c.measured for c in registry_rows(tiny_report)
        ]


class TestReportStructure:
    def test_covers_every_registered_target(self, tiny_report):
        # each registry row exactly once, however many figures read its data
        assert Counter(c.key for c in registry_rows(tiny_report)) == Counter(
            t.key for t in TARGETS
        )

    def test_metric_keys_partition_targets(self, tiny_report):
        datasets = {figure.name: figure.dataset for figure in figures.FIGURES}
        for claim in registry_rows(tiny_report):
            prefix = claim.key.split(".")[0]
            assert datasets[claim.scope] in DATASETS_BY_PREFIX[prefix], claim.key

    def test_json_schema(self, tiny_report):
        doc = json.loads(tiny_report.to_json())
        assert doc["schema"] == "repro.graded/v1"
        assert doc["experiment"] == "figures"
        registry = [entry for entry in doc["claims"] if entry["key"] in TARGETS_BY_KEY]
        assert len(registry) == len(TARGETS)
        for entry in registry:
            assert set(entry) == {
                "key", "scope", "description", "measured", "expected",
                "error", "grade",
            }
            assert entry["expected"] == round(TARGETS_BY_KEY[entry["key"]].paper_value, 6)

    def test_counts_sum_to_metric_count(self, tiny_report):
        grades = [claim.grade for claim in tiny_report.claims if claim.grade]
        tally = tiny_report.render_text().splitlines()[-1]
        infos = len(tiny_report.claims) - len(grades)
        assert tally == (
            f"overall: {tiny_report.overall.value} "
            f"({grades.count(Grade.PASS)} PASS / {grades.count(Grade.WARN)} "
            f"WARN / {grades.count(Grade.FAIL)} FAIL"
            + (f", {infos} info)" if infos else ")")
        )
        assert tiny_report.failed() == (Grade.FAIL in grades)

    def test_render_text_lists_every_metric(self, tiny_report):
        text = tiny_report.render_text()
        for target in TARGETS:
            assert target.key in text

    def test_artifact_round_trips(self, tiny_report, tmp_path):
        path = tmp_path / "figures.json"
        write_atomic(str(path), tiny_report.to_json())
        assert path.read_text() == tiny_report.to_json()
        assert list(tmp_path.iterdir()) == [path]


class TestGradeMeasurements:
    def test_paper_values_grade_pass(self):
        claims = figures._Claims("fig")
        for target in TARGETS:
            claims.target(target.key, target.paper_value, target.description)
        assert [c.key for c in claims.rows] == [t.key for t in TARGETS]
        assert all(c.grade is Grade.PASS for c in claims.rows)

    def test_missing_key_rejected(self):
        # a registry quantity the run could not define FAILs its row
        claims = figures._Claims("fig")
        claims.target("peer.country_share_us", None, "no peers")
        (claim,) = claims.rows
        assert (claim.measured, claim.grade) == (None, Grade.FAIL)

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            figures._Claims("fig").target("peer.bogus", 1.0, "")

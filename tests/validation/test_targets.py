"""Registry sanity: the paper-target table stays well formed."""

import pytest

from repro.validation.compare import Grade
from repro.validation.targets import (
    RETRIEVAL_CDF_FIG9D,
    TARGETS,
    TARGETS_BY_KEY,
    PaperTarget,
)

DATASET_PREFIXES = ("peer", "gateway", "perf")


class TestRegistryShape:
    def test_at_least_twelve_metrics_across_all_datasets(self):
        # The registry promises >= 12 graded paper metrics spanning
        # the peer, gateway and performance datasets.
        assert len(TARGETS) >= 12
        for prefix in DATASET_PREFIXES:
            assert sum(t.key.startswith(prefix + ".") for t in TARGETS) >= 3

    def test_keys_unique_and_prefixed_by_dataset(self):
        assert len(TARGETS_BY_KEY) == len(TARGETS)
        for target in TARGETS:
            assert target.key.split(".")[0] in DATASET_PREFIXES

    def test_tolerance_bands_ordered(self):
        # For at_least targets warn_tol is a slack below the floor, not
        # an outer band, so the ordering constraint does not apply.
        for target in TARGETS:
            if target.kind == "at_least":
                assert target.warn_tol >= 0.0, target.key
            else:
                assert 0.0 <= target.pass_tol <= target.warn_tol, target.key

    def test_every_target_names_its_paper_source(self):
        for target in TARGETS:
            assert any(
                anchor in target.source
                for anchor in ("Fig", "Table", "Section")
            ), target.key


class TestGradingDispatch:
    def test_relative_target_grades(self):
        target = TARGETS_BY_KEY["peer.country_share_us"]
        error, grade = target.grade(target.paper_value)
        assert (error, grade) == (0.0, Grade.PASS)
        assert target.grade(target.paper_value * 5)[1] is Grade.FAIL

    def test_at_least_target_grades(self):
        target = TARGETS_BY_KEY["gateway.combined_hit_rate"]
        assert target.grade(0.95)[1] is Grade.PASS
        assert target.grade(0.1)[1] is Grade.FAIL

    def test_distance_target_grades(self):
        target = TARGETS_BY_KEY["perf.retrieval_cdf_ks"]
        assert target.grade(0.0)[1] is Grade.PASS
        assert target.grade(0.99)[1] is Grade.FAIL

    def test_ordering_target_never_fails(self):
        target = TARGETS_BY_KEY["perf.slowest_region_is_far"]
        assert target.grade(1.0) == (0.0, Grade.PASS)
        assert target.grade(0.0) == (1.0, Grade.WARN)

    def test_unknown_kind_rejected(self):
        bogus = PaperTarget(
            key="x.y", description="", source="Fig 0",
            paper_value=1.0, kind="nonsense",
        )
        with pytest.raises(ValueError):
            bogus.grade(1.0)


class TestDigitizedReference:
    def test_fig9d_anchors_monotone_and_complete(self):
        xs = [x for x, _ in RETRIEVAL_CDF_FIG9D.points]
        ps = [p for _, p in RETRIEVAL_CDF_FIG9D.points]
        assert xs == sorted(xs)
        assert ps == sorted(ps)
        assert ps[-1] == 1.0

    def test_fig9d_hits_the_table4_percentiles(self):
        # The digitization must agree with the Table 4 anchors it was
        # built from: p50 = 2.90 s, p90 = 4.34 s, p95 = 4.74 s.
        assert RETRIEVAL_CDF_FIG9D.probability_at(2.90) == pytest.approx(0.50)
        assert RETRIEVAL_CDF_FIG9D.probability_at(4.34) == pytest.approx(0.90)
        assert RETRIEVAL_CDF_FIG9D.probability_at(4.74) == pytest.approx(0.95)

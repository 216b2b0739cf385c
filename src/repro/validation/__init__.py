"""Paper-fidelity conformance: grade the reproduction against the
numbers the paper reports (churn, dialability, gateway mix, latency
percentiles), with tolerance bands and a machine-readable registry.
"""

from repro.validation.compare import (
    Grade,
    PercentileCheck,
    ReferenceCdf,
    grade_at_least,
    grade_distance,
    grade_relative_error,
    ks_against_reference,
    ks_statistic,
    percentile_band,
    relative_error,
    worst_grade,
)
from repro.validation.conformance import (
    FULL,
    QUICK,
    TIERS,
    ValidationConfig,
    config_for_tier,
    grade_measurements,
    run_conformance,
)
from repro.validation.report import Claim, GradedReport
from repro.validation.targets import (
    DATASETS,
    RETRIEVAL_CDF_FIG9D,
    TARGETS,
    TARGETS_BY_KEY,
    PaperTarget,
    targets_for,
)

__all__ = [
    "Claim",
    "DATASETS",
    "FULL",
    "Grade",
    "GradedReport",
    "PaperTarget",
    "PercentileCheck",
    "QUICK",
    "RETRIEVAL_CDF_FIG9D",
    "ReferenceCdf",
    "TARGETS",
    "TARGETS_BY_KEY",
    "TIERS",
    "ValidationConfig",
    "config_for_tier",
    "grade_at_least",
    "grade_distance",
    "grade_measurements",
    "grade_relative_error",
    "ks_against_reference",
    "ks_statistic",
    "percentile_band",
    "relative_error",
    "run_conformance",
    "targets_for",
    "worst_grade",
]

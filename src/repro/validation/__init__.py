"""Paper-fidelity grading: the comparators, the registry of numbers the
paper reports (churn, dialability, gateway mix, latency percentiles)
with their tolerance bands, and the one graded-report shape. The
registry is graded inside the ``figures`` run
(:mod:`repro.experiments.figures`); :mod:`repro.validation.nat_tier`
is the NAT model's seed-stability sweep behind ``validate``.
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
from repro.validation.report import Claim, GradedReport
from repro.validation.targets import (
    RETRIEVAL_CDF_FIG9D,
    TARGETS,
    TARGETS_BY_KEY,
    PaperTarget,
)

__all__ = [
    "Claim",
    "Grade",
    "GradedReport",
    "PaperTarget",
    "PercentileCheck",
    "RETRIEVAL_CDF_FIG9D",
    "ReferenceCdf",
    "TARGETS",
    "TARGETS_BY_KEY",
    "grade_at_least",
    "grade_distance",
    "grade_relative_error",
    "ks_against_reference",
    "ks_statistic",
    "percentile_band",
    "relative_error",
    "worst_grade",
]

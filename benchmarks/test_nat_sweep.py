"""NAT dialability sweep bench: the emergent-reachability suite.

The smoke test runs the committed ``BENCH_nat.json`` configuration and
checks the grades (the default NAT mix lands in the PASS band of the
paper's 45.5 % undialable share, AutoNAT agrees with ground truth,
punches land, relays keep content reachable); the bytes are pinned for
every graded artifact at once by ``test_graded_bench.py``.
"""

from conftest import save_report

from repro.experiments.nat_sweep import (
    bench_nat_config,
    grade_sweep,
    run_nat_sweep,
)
from repro.validation.compare import Grade


def test_nat_smoke():
    """Fast end-to-end pass for CI: the frozen bench sweep, sharded,
    must grade PASS."""
    results = run_nat_sweep(bench_nat_config(), workers=2)
    report = grade_sweep(results)
    save_report("nat_sweep", report.render_text())

    assert report.overall is Grade.PASS
    # The headline acceptance criterion: the default mix's undialable
    # share is graded PASS against the paper's 45.5 %.
    undialable = next(
        claim for claim in report.claims
        if claim.key == "nat.undialable_fraction"
    )
    assert undialable.grade is Grade.PASS
    # The symmetric x symmetric arm must stay nearly unpunchable while
    # relay fallback keeps its retrievals alive.
    for ttl in results.config.mapping_ttls:
        cell = results.cell("symmetric_heavy", 1.0, ttl)
        assert cell.punches_succeeded < cell.punches_attempted / 4
        assert cell.success_rate >= 0.75

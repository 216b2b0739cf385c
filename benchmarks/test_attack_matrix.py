"""Attack×defense matrix bench: the adversarial what-if suite.

The smoke test runs the committed ``BENCH_attack.json`` configuration
and checks the grades (every attack's degradation recovered by the
defense arm); the bytes are pinned for every graded artifact at once by
``test_graded_bench.py``.
"""

from conftest import save_report

from repro.adversary import (
    bench_attack_config,
    grade_matrix,
    run_attack_matrix,
)
from repro.validation.compare import Grade


def test_attack_smoke():
    """Fast end-to-end pass for CI: the frozen bench matrix, sharded,
    must grade PASS."""
    results = run_attack_matrix(bench_attack_config(), workers=2)
    report = grade_matrix(results)
    save_report("attack_matrix", report.render_text())

    claims = {(claim.key, claim.scope): claim for claim in report.claims}
    assert claims["attack.clean_success", ""].grade is Grade.PASS
    assert report.overall is Grade.PASS
    # The full-strength eclipse is the headline acceptance criterion:
    # measurable suppression, majority recovery.
    clean = results.cell("none", "off")
    eclipsed = results.cell("eclipse", "off", 1.0)
    assert clean.success_rate - eclipsed.success_rate > 0.25
    recovery = claims["attack.recovery", "eclipse@1"].measured
    assert recovery is not None and recovery >= 0.5

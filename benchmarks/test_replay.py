"""Full-day replay bench: the batched 7.1 M-request pipeline, CI-sized.

The smoke test runs the committed ``BENCH_replay.json`` grid (a model
arm at scale 120 and a live-fleet arm) sharded across
workers and checks the grades; the bytes are pinned for every graded
artifact at once by ``test_graded_bench.py``.
"""

from conftest import save_report

from repro.experiments.replay import (
    bench_replay_configs,
    grade_replay,
    run_replay_grid,
)
from repro.validation.compare import Grade


def test_replay_smoke():
    """Fast end-to-end pass for CI: the frozen bench grid, sharded,
    must grade PASS."""
    results = run_replay_grid(bench_replay_configs(), workers=2)
    report = grade_replay(results)
    save_report("replay", report.render_text())

    assert report.overall is Grade.PASS
    # Headline acceptance criteria: the model arm reproduces Table 5's
    # cache-tier split, and the fleet arm answers every admitted miss
    # with zero duplicate upstream launches (PR-8 semantics intact).
    model, fleet = results
    assert model.backend == "model" and fleet.backend == "fleet"
    assert abs(model.nginx_share - 0.460) / 0.460 < 0.12
    assert abs(model.node_store_share - 0.402) / 0.402 < 0.08
    assert model.combined_hit_rate > 0.80
    assert fleet.answered_fraction == 1.0

"""Flash-crowd overload bench: the gateway fleet under burst load.

The smoke test runs the committed ``BENCH_overload.json`` configuration
and checks the grades (the hardened fleet sustains the spike the stock
round-robin fleet collapses under); the bytes are pinned for every
graded artifact at once by ``test_graded_bench.py``.
"""

from conftest import save_report

from repro.experiments.flash_crowd import (
    bench_overload_config,
    grade_flash_crowd,
    run_flash_crowd,
)
from repro.validation.compare import Grade


def test_overload_smoke():
    """Fast end-to-end pass for CI: the frozen bench grid, sharded,
    must grade PASS."""
    results = run_flash_crowd(bench_overload_config(), workers=2)
    report = grade_flash_crowd(results)
    save_report("flash_crowd", report.render_text())

    assert report.overall is Grade.PASS
    # The headline acceptance criterion: the hardened arm holds >= 2x
    # the stock arm's goodput at the NFT drop's peak, with zero
    # duplicate upstream fetches for coalesced hot CIDs.
    stock = results.cell("nft_drop", "stock")
    hardened = results.cell("nft_drop", "hardened")
    assert hardened.spike_goodput >= 2.0 * stock.spike_goodput
    assert hardened.hot_duplicate_launches == 0
    assert stock.duplicate_launches > 100  # round-robin re-fetch storm

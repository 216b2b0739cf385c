"""Flash-crowd experiment tests.

A deliberately tiny configuration — short traces, few objects, small
payloads — keeps the full (storm x arm) grid under a couple of seconds
so CI can assert the structural properties: sharding is byte-identical
for any worker count, cells are deterministic, the report carries the
graded rows, and JSON export is stable.
"""

import json

from repro.experiments.flash_crowd import (
    ARMS,
    FlashCrowdConfig,
    grade_flash_crowd,
    run_flash_crowd,
)
from repro.workloads.bursts import DiurnalStormConfig, NftDropConfig


def tiny_config(**kwargs) -> FlashCrowdConfig:
    defaults = dict(
        seed=11,
        n_gateways=2,
        n_backdrop=10,
        object_size=48 * 1024,
        deadline_s=8.0,
        nft_drop=NftDropConfig(
            duration_s=30.0, drop_at_s=8.0, spike_duration_s=12.0,
            baseline_rate_hz=0.5, spike_rate_hz=6.0,
            n_hot_objects=8, n_background_objects=4,
        ),
        storm=DiurnalStormConfig(
            duration_s=40.0, baseline_rate_hz=1.0,
            storm_start_s=18.0, storm_duration_s=14.0,
            storm_multiplier=6.0, n_objects=8,
        ),
        outage_offset_s=2.0,
        outage_duration_s=8.0,
    )
    defaults.update(kwargs)
    return FlashCrowdConfig(**defaults)


def cell_fingerprint(cell) -> tuple:
    return (
        cell.storm, cell.arm, cell.attempted, cell.served, cell.failed,
        cell.spike_attempted, cell.spike_served, cell.shed,
        cell.duplicate_launches, cell.hot_duplicate_launches,
        cell.coalesced_joins, cell.single_flights, cell.failovers,
        cell.latency_p50, cell.latency_p95, cell.latency_p99,
    )


class TestDeterminism:
    def test_workers_do_not_change_the_results(self):
        config = tiny_config()
        solo = run_flash_crowd(config, workers=1)
        sharded = run_flash_crowd(config, workers=2)
        assert [cell_fingerprint(c) for c in solo.cells] == [
            cell_fingerprint(c) for c in sharded.cells
        ]
        assert grade_flash_crowd(solo).to_json() == (
            grade_flash_crowd(sharded).to_json()
        )

    def test_same_seed_same_bytes_different_seed_different(self):
        config = tiny_config()
        first = grade_flash_crowd(run_flash_crowd(config)).to_json()
        again = grade_flash_crowd(run_flash_crowd(config)).to_json()
        assert first == again
        reseeded = tiny_config(seed=12)
        other = grade_flash_crowd(run_flash_crowd(reseeded)).to_json()
        assert first != other


class TestReport:
    def test_grid_and_graded_rows_are_complete(self):
        config = tiny_config()
        results = run_flash_crowd(config, workers=2)
        assert len(results.cells) == 4
        for storm in config.storms:
            for arm in ARMS:
                cell = results.cell(storm, arm)
                assert cell.attempted > 0
                assert 0.0 <= cell.goodput <= 1.0
                assert 0.0 <= cell.spike_goodput <= 1.0
        report = grade_flash_crowd(results)
        metrics = {(claim.scope, claim.key) for claim in report.claims}
        assert ("nft_drop", "overload.spike_goodput_ratio") in metrics
        assert ("diurnal_storm", "overload.spike_goodput_ratio") in metrics
        assert ("nft_drop", "overload.hot_duplicate_launches") in metrics
        assert report.overall.name in {"PASS", "WARN", "FAIL"}

    def test_json_round_trips(self):
        report = grade_flash_crowd(run_flash_crowd(tiny_config(), workers=2))
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro.graded/v1"
        assert payload["experiment"] == "overload"
        assert payload["config"]["n_gateways"] == 2
        assert payload["config"]["storm"]["n_objects"] == 8
        assert len(payload["cells"]) == 4
        for cell in payload["cells"]:
            assert set(cell) >= {
                "storm", "arm", "attempted", "served", "spike_goodput",
                "shed", "duplicate_launches", "latency_p99",
            }
        # Canonical form: sorted keys, trailing newline.
        assert report.to_json() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def test_render_text_mentions_every_cell(self):
        report = grade_flash_crowd(run_flash_crowd(tiny_config(), workers=2))
        text = report.render_text()
        for token in ("nft_drop", "diurnal_storm", "stock", "hardened",
                      "spike", "overall"):
            assert token in text


class TestHardenedEffect:
    def test_hardened_arm_never_duplicates_hot_fetches(self):
        # Consistent-hash routing plus single-flight: each hot object is
        # fetched upstream at most once fleet-wide even in the tiny grid.
        results = run_flash_crowd(tiny_config())
        for storm in ("nft_drop", "diurnal_storm"):
            cell = results.cell(storm, "hardened")
            assert cell.hot_duplicate_launches == 0

    def test_stock_round_robin_duplicates_more(self):
        results = run_flash_crowd(tiny_config())
        stock = sum(
            results.cell(storm, "stock").duplicate_launches
            for storm in ("nft_drop", "diurnal_storm")
        )
        hardened = sum(
            results.cell(storm, "hardened").duplicate_launches
            for storm in ("nft_drop", "diurnal_storm")
        )
        assert stock > hardened

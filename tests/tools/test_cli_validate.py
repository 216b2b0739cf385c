"""Smoke test for the `validate` CLI subcommand (the NAT-model
seed-stability sweep)."""

import dataclasses
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.tools import cli
from repro.tools.cli import main
from repro.validation.nat_tier import run_nat_tier

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("validate") / "fidelity.json"
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([
            "validate", "--bench", "--workers", "2", "--export", str(path),
        ])
    return code, path, buffer.getvalue()


class TestValidateCommand:
    def test_exit_code_and_artifact(self, bench_run):
        code, path, output = bench_run
        assert code == 0
        assert path.exists()
        assert "nat-tier (seed=42" in output
        assert "overall: PASS" in output

    def test_artifact_schema(self, bench_run):
        _, path, _ = bench_run
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.graded/v1"
        assert doc["experiment"] == "nat-tier"
        assert doc["config"]["seed"] == 42
        assert [entry["scope"] for entry in doc["claims"]] == [
            f"seed={seed}" for seed in (42, 42, 43, 43, 44, 44)
        ]
        assert all(entry["grade"] == "PASS" for entry in doc["claims"])
        assert doc["overall"] == "PASS"

    def test_matches_committed_artifact(self, bench_run):
        # The committed BENCH_fidelity.json is the seed-42 sweep;
        # regenerating it must be byte-identical (determinism), and any
        # model change that moves a metric shows up as a diff.
        _, path, _ = bench_run
        committed = REPO_ROOT / "BENCH_fidelity.json"
        assert path.read_text() == committed.read_text()

    def test_unknown_tier_rejected(self):
        # the paper-target tiers are gone (figures grades the registry),
        # and with them the flag that picked one
        with pytest.raises(SystemExit):
            main(["validate", "--tier", "nat"])


@pytest.mark.parametrize("bench", [False, True], ids=["flags", "bench"])
def test_global_seed_moves_every_graded_seed(bench, monkeypatch, tmp_path, capsys):
    # `--seed 7 validate` used to grade seeds 42/43/44 whatever was asked
    def shrunk(config, workers):
        return run_nat_tier(
            dataclasses.replace(config, n_peers=60, crawl_hours=0.5), workers
        )

    monkeypatch.setattr(cli, "GRADED", tuple(
        dataclasses.replace(entry, run=shrunk) if entry.name == "validate" else entry
        for entry in cli.GRADED
    ))
    path = tmp_path / "fidelity.json"
    main(["--seed", "7", "validate", *(["--bench"] if bench else []),
          "--export", str(path)])
    doc = json.loads(path.read_text())
    assert doc["config"]["seed"] == 7
    assert [cell["seed"] for cell in doc["cells"]] == [7, 8, 9]
    assert {entry["scope"] for entry in doc["claims"]} == {"seed=7", "seed=8", "seed=9"}

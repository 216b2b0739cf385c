"""Smoke test for the `validate` CLI subcommand (conformance gate)."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.tools.cli import main
from repro.validation.targets import DATASETS, TARGETS

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("validate") / "fidelity.json"
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([
            "validate", "--tier", "quick", "--workers", "2",
            "--export", str(path),
        ])
    return code, path, buffer.getvalue()


class TestValidateCommand:
    def test_exit_code_and_artifact(self, quick_run):
        code, path, output = quick_run
        assert code == 0
        assert path.exists()
        assert "fidelity (tier=quick, seed=42" in output
        assert "overall: PASS" in output

    def test_artifact_schema(self, quick_run):
        _, path, _ = quick_run
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.graded/v1"
        assert doc["experiment"] == "fidelity"
        assert doc["config"]["tier"] == "quick"
        assert doc["config"]["seed"] == 42
        assert len(doc["claims"]) == len(TARGETS) >= 12
        assert {entry["scope"] for entry in doc["claims"]} == set(DATASETS)
        assert all(entry["grade"] != "FAIL" for entry in doc["claims"])
        assert doc["overall"] == "PASS"

    def test_matches_committed_artifact(self, quick_run):
        # The committed BENCH_fidelity.json is the quick-tier seed-42
        # run; regenerating it must be byte-identical (determinism),
        # and any model change that moves a metric shows up as a diff.
        _, path, _ = quick_run
        committed = REPO_ROOT / "BENCH_fidelity.json"
        assert path.read_text() == committed.read_text()

    def test_unknown_tier_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "--tier", "huge"])

"""The one path every graded subcommand takes, over the registered
entries: exit codes, the artifact schema, byte stability, and the
parser refusing bad input before any cell runs."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import figures
from repro.tools import cli
from repro.tools.graded import write_atomic
from repro.validation.compare import Grade, worst_grade
from repro.validation.nat_tier import run_nat_tier
from repro.validation.report import SCHEMA, GradedReport
from tests.helpers import TINY_FIGURES

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Flags that shrink each entry to well under a second.
TINY_FLAGS = {
    "figures": [],  # no flags of its own: the frozen shape is shrunk below
    "validate": [],  # no flags of its own: its run is shrunk below
    "attack": ["--peers", "80", "--retrievals", "1", "--attacks", "eclipse"],
    "nat-sweep": ["--peers", "40", "--hours", "0.5", "--retrievals", "0"],
    "flash-crowd": ["--gateways", "2", "--object-kib", "8", "--deadline", "4",
                    "--storms", "diurnal_storm"],
    "scale-crawl": ["--peers", "200", "--hours", "0.5", "--probe-sample", "0.5"],
    "replay": ["--scale", "5000"],
    "chaos": ["--peers", "80", "--intensities", "0.1", "--retrievals", "2"],
    "chaos-recovery": ["--peers", "80", "--intensities", "0.15",
                       "--retrievals", "2", "--unannounced", "1"],
}

#: the nat tier's worlds, shrunk
TINY_NAT_TIER = {"n_peers": 60, "crawl_hours": 0.5}

TOP_LEVEL_KEYS = {"schema", "experiment", "config", "cells", "claims", "overall"}
CLAIM_KEYS = {
    "key", "scope", "description", "measured", "expected", "error", "grade",
}

entries = pytest.mark.parametrize(
    "entry", cli.GRADED, ids=lambda entry: entry.name
)


def check_schema(doc: dict) -> None:
    assert set(doc) - {"telemetry"} == TOP_LEVEL_KEYS
    assert doc["schema"] == SCHEMA
    assert isinstance(doc["cells"], list)
    assert all(isinstance(cell, dict) for cell in doc["cells"])
    for claim in doc["claims"]:
        assert set(claim) == CLAIM_KEYS
        assert claim["grade"] in {None, "PASS", "WARN", "FAIL"}
    graded = [Grade(c["grade"]) for c in doc["claims"] if c["grade"]]
    assert doc["overall"] == worst_grade(graded).value


def test_every_entry_has_tiny_flags():
    assert set(TINY_FLAGS) == {entry.name for entry in cli.GRADED}


@entries
def test_run_export_and_exit_code(entry, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "GRADED", tuple(
        dataclasses.replace(each, run=lambda config, workers: run_nat_tier(
            dataclasses.replace(config, **TINY_NAT_TIER), workers,
        )) if each.name == "validate" else each
        for each in cli.GRADED
    ))
    monkeypatch.setattr(figures, "BENCH", TINY_FIGURES)
    monkeypatch.setattr(figures, "FIGURES", tuple(  # the ablations shrink in test_figures.py
        figure for figure in figures.FIGURES if not figure.name.startswith("ablation.")
    ))
    texts = []
    for run in ("a", "b"):
        path = tmp_path / f"{run}.json"
        code = cli.main(
            [entry.name, *TINY_FLAGS[entry.name], "--export", str(path)]
        )
        text = path.read_text()
        doc = json.loads(text)
        check_schema(doc)
        assert code == (1 if doc["overall"] == "FAIL" else 0)
        assert f"overall: {doc['overall']}" in capsys.readouterr().out
        assert text.endswith("}\n")
        if doc.pop("telemetry", None) is None:
            # canonical: re-serializing the parsed artifact is a no-op
            assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
        texts.append(json.dumps(doc, sort_keys=True))
    assert texts[0] == texts[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


@pytest.mark.parametrize(
    "path", sorted(REPO_ROOT.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_committed_artifacts_parse_under_the_one_schema(path):
    check_schema(json.loads(path.read_text()))
    assert path.name in {entry.baseline for entry in cli.GRADED}


# ----------------------------------------------------------------------
# the three fixes: each entry's ``run`` is swapped for a recorder, so
# what is tested is the path (parser, config, writer), not a simulation
# ----------------------------------------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Configs the graded path handed to ``run``; no cell ever runs."""
    configs = []

    def run(config, workers):
        configs.append(config)
        return GradedReport("stub", config, (), (), [])

    monkeypatch.setattr(cli, "GRADED", tuple(
        dataclasses.replace(entry, run=run) for entry in cli.GRADED
    ))
    return configs


class TestSeed:
    def test_explicit_seed_42_beats_the_frozen_bench_seed(
        self, recorded, tmp_path, capsys
    ):
        # bench_overload_config().seed is 7; 42 used to be mistaken
        # for "no seed given" and silently ignored.
        path = tmp_path / "f.json"
        cli.main(["--seed", "42", "flash-crowd", "--bench", "--export", str(path)])
        assert json.loads(path.read_text())["config"]["seed"] == 42

    @entries
    def test_bench_without_seed_keeps_the_frozen_config(self, entry, recorded, capsys):
        cli.main([entry.name, "--bench"])
        assert recorded == [entry.bench()]

    def test_bench_reseeds_every_arm_of_a_grid(self, recorded, capsys):
        cli.main(["--seed", "5", "replay", "--bench"])
        assert [arm.seed for arm in recorded[0]] == [5, 5]

    @entries
    def test_default_seed_is_42_outside_bench(self, entry, recorded, capsys):
        cli.main([entry.name])
        (config,) = recorded
        if entry.name == "replay":
            (config,) = config
        assert config.seed == 42


class TestExport:
    @entries
    def test_unwritable_destination_is_refused_before_any_run(
        self, entry, recorded, tmp_path, capsys
    ):
        for bad in (tmp_path / "missing" / "x.json", tmp_path):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([entry.name, "--bench", "--export", str(bad)])
            assert exit_info.value.code == 2
            assert "cannot write" in capsys.readouterr().err
        assert recorded == []

    def test_attack_runs_no_cell_for_an_unwritable_destination(
        self, monkeypatch, capsys
    ):
        from repro.adversary import experiment

        ran = []
        monkeypatch.setattr(
            experiment, "run_cells", lambda cells, workers=1: ran.append(cells)
        )
        with pytest.raises(SystemExit):
            cli.main(["attack", "--bench", "--export", "/nonexistent/x.json"])
        assert ran == []

    @pytest.mark.parametrize("failure", ["mid-write", "at-replace"])
    def test_failed_write_leaves_the_old_artifact_and_no_temp_file(
        self, failure, tmp_path, monkeypatch
    ):
        path = tmp_path / "BENCH_x.json"
        path.write_text("the committed artifact\n")
        if failure == "mid-write":
            text = ["not", "a", "string"]  # handle.write raises TypeError
        else:
            text = "new\n"

            def refuse(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr("repro.tools.graded.os.replace", refuse)
        with pytest.raises((TypeError, OSError)):
            write_atomic(str(path), text)
        assert path.read_text() == "the committed artifact\n"
        assert list(tmp_path.iterdir()) == [path]


class TestBadInput:
    """User errors are argparse errors: usage line, exit 2, nothing run."""

    @entries
    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_must_be_a_positive_integer(
        self, entry, workers, recorded, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([entry.name, "--workers", workers])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert recorded == []

    @pytest.mark.parametrize("command", ["replay", "gateway"])
    @pytest.mark.parametrize("scale", ["0", "-5", "twelve"])
    def test_scale_must_be_a_positive_integer(
        self, command, scale, recorded, capsys
    ):
        # 0 and -5 used to end in a ZeroDivisionError traceback
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--scale", scale])
        assert exit_info.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert recorded == []

    @pytest.mark.parametrize("argv", [
        ["attack", "--attacks", "bogus"],
        ["attack", "--attacks", "eclipse,bogus"],
        ["flash-crowd", "--storms", "bogus"],
        ["validate", "--tier", "quick"],
        ["replay", "--backend", "cloud"],
        ["chaos", "--arms", "bare,turbo"],
        ["chaos", "--intensities", "0.1,1.5"],
        ["chaos-recovery", "--intensities", "nan"],
        ["chaos-recovery", "--intensities", "ten percent"],
        ["chaos", "--retrievals", "0"],
    ])
    def test_unknown_names_are_refused_by_the_parser(self, argv, recorded, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert recorded == []

    def test_help_renders_for_every_subcommand(self, capsys):
        # a bare "%" in one help string used to crash the top-level --help
        for argv in (["--help"], *([entry.name, "--help"] for entry in cli.GRADED)):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 0
        assert "nat-sweep" in capsys.readouterr().out


class TestFlagsReachTheConfig:
    def test_units_are_converted_and_unset_flags_keep_defaults(
        self, recorded, capsys
    ):
        cli.main(["scale-crawl", "--hours", "2", "--workers", "3"])
        cli.main(["flash-crowd", "--object-kib", "4", "--storms", "nft_drop"])
        cli.main(["attack", "--attacks", "eclipse", "--intensity", "0.5"])
        cli.main(["replay", "--scale", "50", "--backend", "fleet", "--full-catalog"])
        scale, flash, attack, (replay,) = recorded
        assert (scale.duration_s, scale.n_peers, scale.seed) == (7200.0, 200_000, 42)
        assert (flash.object_size, flash.storms) == (4096, ("nft_drop",))
        assert [(a.kind, a.intensity) for a in attack.attacks] == [
            ("none", 1.0), ("eclipse", 0.5),
        ]
        assert (replay.trace.scale, replay.trace.full_catalog) == (50, True)
        assert replay.miss_backend == "fleet"

    def test_both_chaos_sweeps_share_their_flags(self, recorded, capsys):
        cli.main(["chaos", "--arms", "retry,resilient", "--intensities", "0,0.5"])
        cli.main(["chaos-recovery", "--peers", "90", "--unannounced", "1"])
        loss, recovery = recorded
        assert (loss.sweep, loss.arms, loss.intensities, loss.n_peers) == (
            "loss", ("retry", "resilient"), (0.0, 0.5), 300,
        )
        assert dataclasses.replace(
            recovery, n_peers=250, unannounced_retrievals=3
        ) == cli.GRADED[-1].bench()

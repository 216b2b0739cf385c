"""The multiprocess cell runner: ordering, errors, and equivalence."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.runner import Cell, CellError, run_cells, sweep_cells


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"cell {x} exploded")


class TestRunCells:
    def test_inline_preserves_order(self):
        cells = [Cell(f"c{i}", _square, (i,)) for i in range(5)]
        assert run_cells(cells, workers=1) == [0, 1, 4, 9, 16]

    def test_pool_matches_inline(self):
        cells = [Cell(f"c{i}", _square, (i,)) for i in range(7)]
        assert run_cells(cells, workers=3) == run_cells(cells, workers=1)

    def test_single_cell_runs_inline_even_with_workers(self):
        # No pool spin-up cost for a one-cell "sweep".
        assert run_cells([Cell("only", _square, (6,))], workers=8) == [36]

    def test_empty(self):
        assert run_cells([], workers=4) == []

    def test_inline_error_carries_label(self):
        cells = [Cell("ok", _square, (2,)), Cell("bad", _boom, (7,))]
        with pytest.raises(CellError, match="'bad'"):
            run_cells(cells, workers=1)

    def test_inline_path_imports_no_pool_modules(self):
        # A process that only ever runs cells inline (every benchmark
        # workload) must not pay for the process-pool machinery: the
        # CLI and an inline run_cells load neither module.
        script = textwrap.dedent(
            """
            import sys
            import repro.tools.cli
            from repro.experiments.runner import Cell, run_cells
            assert run_cells([Cell("a", abs, (-1,)), Cell("b", abs, (-2,))], workers=1) == [1, 2]
            print(sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules)))
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        )
        assert out.stdout.strip() == "[]"

    def test_pool_error_carries_label(self):
        cells = [Cell(f"c{i}", _square, (i,)) for i in range(3)]
        cells.append(Cell("bad", _boom, (9,)))
        with pytest.raises(CellError, match="'bad'"):
            run_cells(cells, workers=2)


class TestSweepCells:
    def test_arm_major_order(self):
        cells = sweep_cells("s", _square, "cfg", ["a", "b"], [0.0, 0.25])
        assert [c.args for c in cells] == [
            ("cfg", "a", 0.0), ("cfg", "a", 0.25),
            ("cfg", "b", 0.0), ("cfg", "b", 0.25),
        ]
        assert cells[0].label == "s[a]@0"
        assert cells[3].label == "s[b]@0.25"


class TestChaosSharding:
    """The acceptance property: worker count never changes results."""

    CONFIG = ChaosConfig(
        seed=7, n_peers=60, intensities=(0.0, 0.3), retrievals_per_level=2
    )

    def test_workers_do_not_change_results(self):
        serial = run_chaos(self.CONFIG, workers=1)
        sharded = run_chaos(self.CONFIG, workers=2)
        assert [level.arm for level in serial] == ["bare", "bare", "retry", "retry"]
        assert list(map(dataclasses.asdict, serial)) == list(
            map(dataclasses.asdict, sharded)
        )

    def test_level_results_pickle_roundtrip(self):
        import pickle

        levels = run_chaos(dataclasses.replace(self.CONFIG, arms=("retry",)))
        clone = pickle.loads(pickle.dumps(levels))
        assert list(map(dataclasses.asdict, clone)) == list(
            map(dataclasses.asdict, levels)
        )

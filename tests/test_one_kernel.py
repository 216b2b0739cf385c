"""Every world runs on ``Simulator``.

``repro.simnet.shard`` stays on disk only while the benchmark's seam
table names it (ROADMAP 4(b)); nothing under ``src/repro`` may import
it, and the knob that picked its shard count may not come back on the
compact builder or the scale-crawl config.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.experiments.scale import ScaleCrawlConfig
from repro.simnet.compact import build_compact_world

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(node: ast.AST) -> list:
    """The dotted names one import statement binds or reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_nothing_imports_the_sharded_kernel():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 100  # the walk found the tree
    importers = [
        str(path.relative_to(SRC))
        for path in paths
        if path != SRC / "simnet" / "shard.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if any(
            (name + ".").startswith("repro.simnet.shard.")
            for name in _imported(node)
        )
    ]
    assert not importers, f"modules importing repro.simnet.shard: {importers}"


def test_no_workers_knob_on_worlds():
    assert "workers" not in inspect.signature(build_compact_world).parameters
    assert "workers" not in {f.name for f in dataclasses.fields(ScaleCrawlConfig)}

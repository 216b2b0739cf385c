"""Every world runs on ``Simulator``, and each world has one builder.

``repro.simnet.shard`` stays on disk only while the benchmark's seam
table names it (ROADMAP 4(b)); nothing under ``src/repro`` may import
it, and the knob that picked its shard count may not come back on the
compact builder or the scale-crawl config.

The population is its columns and churn is pre-drawn: the object
population, its per-peer spec and the one-transition-at-a-time churn
process (now the reference in ``tests/helpers.py``) may not come back
under ``src/repro``. The gateway fleet's object world has one builder,
which the replay and the flash-crowd cells both call.
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


def _trees() -> dict[str, ast.AST]:
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 100  # the walk found the tree
    return {str(path.relative_to(SRC)): ast.parse(path.read_text()) for path in paths}


def test_nothing_imports_the_sharded_kernel():
    importers = [
        name
        for name, tree in _trees().items()
        if name != "simnet/shard.py"
        for node in ast.walk(tree)
        if any(
            (name + ".").startswith("repro.simnet.shard.")
            for name in _imported(node)
        )
    ]
    assert not importers, f"modules importing repro.simnet.shard: {importers}"


def test_no_workers_knob_on_worlds():
    assert "workers" not in inspect.signature(build_compact_world).parameters
    assert "workers" not in {f.name for f in dataclasses.fields(ScaleCrawlConfig)}


#: Names of the object population and the per-peer churn process.
GONE = {"Population", "PeerSpec", "to_population", "spec_at", "SessionProcess"}


def _named(node: ast.AST) -> list[str]:
    """The names one node defines, imports or reads as an attribute."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [name.rsplit(".", 1)[-1] for name in _imported(node)]


def test_the_object_population_and_session_process_stay_gone():
    found = sorted(
        f"{name}: {gone}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        for gone in GONE.intersection(_named(node))
    )
    assert not found, f"object residue under src/repro: {found}"


def _calls(tree: ast.AST, function: str) -> int:
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == function
    )


def test_one_fleet_world_builder():
    trees = _trees()
    builders = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "build_fleet_world"
    ]
    assert builders == ["gateway/fleet.py"]
    for cell in ("gateway/replay.py", "experiments/flash_crowd.py"):
        assert _calls(trees[cell], "build_fleet_world") == 1, cell
    # A second object world would fill its tables itself: the fleet
    # world and the figures' table refill are the only object fills.
    fillers = sorted(
        name for name, tree in trees.items() if _calls(tree, "populate_routing_tables")
    )
    assert fillers == ["experiments/figures.py", "gateway/fleet.py"]

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

Routing tables are filled once, when a world is built: the fleet world
is the one ``src/`` caller of ``populate_routing_tables``, and no
experiment edits a built world's tables (an ablation arm is a build
input, ``figures.KNOCKOUTS``), so no ``src/repro/experiments`` module
calls ``populate_routing_tables`` or ``RoutingTable.remove``.

Every world fills its tables with one function,
``bootstrap.fill_positions``: the object world's
``populate_routing_tables`` and ``CompactWorld._fill_tables`` both call
it, and a bulk fill is a ``RoutingTable.view`` (no ``load``; every
bucket holds ``K_BUCKET_SIZE``, no ``bucket_size``). The
``KeyspaceTree`` and its walks live in ``dht/bootstrap.py`` alone,
which serves both the fill and a table's bucket runs
(``bootstrap.table_runs``, what both worlds' views read); no module
derives runs by XOR-scanning stored entries (that scan is the test
reference, ``tests.helpers.bucket_runs``).

Every FIND_NODE answer picks its closest peers with one function,
``routing_table.nearest``.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.dht.bootstrap import table_runs
from repro.dht.routing_table import RoutingTable
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
    # world is the only object fill.
    fillers = sorted(
        name for name, tree in trees.items() if _calls(tree, "populate_routing_tables")
    )
    assert fillers == ["gateway/fleet.py"]


def _table_removals(tree: ast.AST) -> int:
    """Calls of ``<...table>.remove(...)``: a routing-table edit."""
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "remove"
        and ast.unparse(node.func.value).endswith("table")
    )


def test_no_experiment_refills_a_built_world():
    experiments = {
        name: tree for name, tree in _trees().items() if name.startswith("experiments/")
    }
    assert "experiments/figures.py" in experiments
    editors = sorted(
        name
        for name, tree in experiments.items()
        if _calls(tree, "populate_routing_tables") or _table_removals(tree)
    )
    assert not editors, f"experiments editing routing tables after build: {editors}"


def _functions(trees: dict[str, ast.AST]):
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield name, node


def _sorts_by_xor(function: ast.AST) -> bool:
    """Whether a function both XORs and sorts: the shape of a closest-k
    selection by Kademlia distance."""
    nodes = list(ast.walk(function))
    xors = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitXor) for n in nodes)
    sorts = any(
        isinstance(n, ast.Call) and (
            isinstance(n.func, ast.Attribute) and n.func.attr == "sort"
            or isinstance(n.func, ast.Name) and n.func.id in ("sorted", "nsmallest")
        )
        for n in nodes
    )
    return xors and sorts


def test_one_closest_k_selection():
    """Every FIND_NODE answer — a ``RoutingTable``'s, and a compact
    world's peer that answers from its stored runs — takes the one
    selection, ``routing_table.nearest``. The censor plan's pick of
    the honest servers nearest a target is the attacker's choice over
    hosts, not an answer from a table."""
    trees = _trees()
    selections = sorted(
        f"{name}:{function.name}"
        for name, function in _functions(trees)
        if _sorts_by_xor(function)
    )
    assert selections == [
        "adversary/attacks.py:_censor_plan", "dht/routing_table.py:nearest",
    ]
    callers = sorted(
        f"{name}:{function.name}"
        for name, function in _functions(trees)
        if _calls(function, "nearest")
    )
    assert callers == ["dht/routing_table.py:closest", "simnet/compact.py:_find_node"]


def _named_calls(tree: ast.AST, function: str) -> int:
    """Calls of ``function`` by name or as an attribute (``m.function``)."""
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == function
    )


def test_one_table_fill():
    """The tree and the walk have one home, ``dht/bootstrap.py``,
    anywhere in ``src/`` (module level included): ``fill_positions``
    builds the tree it samples, ``run_tree`` the one a compact world
    walks for runs alone. Both worlds' fills call ``fill_positions``."""
    trees = _trees()
    functions = {f"{name}:{function.name}": function for name, function in _functions(trees)}
    homes = {
        "KeyspaceTree": {"fill_positions": 1, "run_tree": 1},
        "sample_table_positions": {"fill_positions": 1},
    }
    for part, counts in homes.items():
        callers = {
            name: count for name, tree in trees.items()
            if (count := _named_calls(tree, part))
        }
        assert callers == {"dht/bootstrap.py": sum(counts.values())}, part
        for home, count in counts.items():
            assert _named_calls(functions[f"dht/bootstrap.py:{home}"], part) == count, part
    fillers = sorted(
        f"{name}:{function.name}"
        for name, function in _functions(trees)
        if _named_calls(function, "fill_positions")
    )
    assert fillers == [
        "dht/bootstrap.py:populate_routing_tables", "simnet/compact.py:_fill_tables",
    ]


def _groups_by_xor(function: ast.AST) -> bool:
    """Whether a function both XORs and groups: the shape of a scan
    that finds bucket runs from keys' XOR distances."""
    nodes = list(ast.walk(function))
    xors = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitXor) for n in nodes)
    return xors and _named_calls(function, "groupby") > 0


def test_runs_come_from_the_walk():
    """Both worlds take a table's bucket runs from the fill's walk.
    Only ``table_runs`` groups keys by XOR distance, and it takes no
    stored entries: it places the wholesale tail's at most k keys,
    read off its window. No module names the stored-entry scan."""
    trees = _trees()
    walkers = sorted(
        f"{name}:{function.name}"
        for name, function in _functions(trees)
        if _named_calls(function, "table_runs")
    )
    assert walkers == ["dht/bootstrap.py:populate_routing_tables", "simnet/compact.py:_runs_at"]
    scanners = sorted(
        f"{name}:{function.name}"
        for name, function in _functions(trees)
        if _groups_by_xor(function)
    )
    assert scanners == ["dht/bootstrap.py:table_runs"]
    assert list(inspect.signature(table_runs).parameters) == ["own_int", "tree"]
    found = sorted(
        name for name, tree in trees.items()
        for node in ast.walk(tree) if "bucket_runs" in _named(node)
    )
    assert not found, f"modules naming the stored-entry scan: {found}"


def test_a_bulk_fill_is_a_view_of_k_buckets():
    assert not hasattr(RoutingTable, "load")
    assert "bucket_size" not in inspect.signature(RoutingTable).parameters
    assert "bucket_size" not in RoutingTable.__slots__

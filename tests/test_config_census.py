"""No knob that nothing turns, and none that only tests turn.

Every field of every ``*Config`` / ``*Policy`` dataclass under
``src/repro`` must be set somewhere other than its own class body: as a
keyword of a call or a key of a dict literal (which tests splat into
constructors) in ``src``, ``tests``, ``examples`` or ``benchmarks``, or
as the ``dest`` of a ``flag(...)`` entry of :mod:`repro.tools.cli`. A
field with one value in use is a constant; write it as one, next to the
code that reads it.

A field only ``tests`` set is a constant too, unless it is a *size
seam*: a world, grid, rate or duration a tier-1 test must shrink to
stay fast. Those are listed in :data:`TEST_SEAMS` with the reason.

How hard a node fights failures is one knob, ``NodeConfig.protection``:
the per-mechanism flag classes, the config factories that spelled the
rungs and the ``*_on`` switches the hot paths branched on may not come
back under ``src/repro``.
"""

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The fields only tests set, each with why it stays a field.
TEST_SEAMS = {
    "ProbeConfig.probe_via_dial": "leaves with ROADMAP 5(a)",
    "FlashCrowdConfig.n_backdrop": "world: the tiny grid's DHT backdrop is smaller",
    "FlashCrowdConfig.nft_drop": "world: the tiny grid replays a shorter, sparser drop",
    "FlashCrowdConfig.outage_offset_s":
        "duration: the outage must fit inside the tiny grid's shorter storm",
    "FlashCrowdConfig.outage_duration_s":
        "duration: the outage must fit inside the tiny grid's shorter storm",
    "FiguresConfig.population_peers": "world: the tiny and seed-sweep figures shapes",
    "FiguresConfig.crawl_peers": "world: the tiny and seed-sweep figures shapes",
    "FiguresConfig.perf_peers": "world: the tiny and seed-sweep figures shapes",
    "FiguresConfig.perf_rounds": "duration: the tiny and seed-sweep figures shapes",
    "FiguresConfig.gateway_scale": "world: the tiny and seed-sweep figures shapes",
    "NatSweepConfig.mixes": "grid: the sweep test runs two of the three NAT mixes",
    "NatSweepConfig.mapping_ttls": "grid: the sweep test runs one mapping TTL",
    "NftDropConfig.drop_at_s": "duration: the drop must land inside a shorter trace",
    "NftDropConfig.spike_duration_s": "duration: a shorter spike",
    "NftDropConfig.baseline_rate_hz": "rate: fewer background requests",
    "NftDropConfig.spike_rate_hz": "rate: fewer spike requests",
    "NftDropConfig.n_hot_objects": "world: fewer hot objects to publish",
    "NftDropConfig.n_background_objects": "world: fewer background objects to publish",
    "DiurnalStormConfig.baseline_rate_hz": "rate: fewer requests",
    "DiurnalStormConfig.storm_start_s":
        "duration: the storm must start inside a shorter day",
    "DiurnalStormConfig.storm_duration_s": "duration: a shorter storm",
    "DiurnalStormConfig.storm_multiplier":
        "rate: a milder surge; the generator test compares two",
    "DiurnalStormConfig.n_objects": "world: fewer objects to publish",
}

#: Settable config fields in ``src``: a ratchet, so growth shows in review.
MAX_FIELDS = 99


def _is_config(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.ClassDef)
        and node.name.endswith(("Config", "Policy"))
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    )


def _names_set(node: ast.AST) -> list:
    """The field names one call or dict literal sets."""
    if isinstance(node, ast.Dict):
        return [key.value for key in node.keys if isinstance(key, ast.Constant)]
    if not isinstance(node, ast.Call):
        return []
    flagged = [node.args[1].value] if ast.unparse(node.func) == "flag" else []
    return flagged + [keyword.arg for keyword in node.keywords]


def _spot(top: str, path: Path, node: ast.AST) -> tuple:
    return top, path, node.lineno, node.col_offset


@cache
def _census() -> dict[str, set[str]]:
    """``Class.field`` -> the top directories that set it outside its
    own class body."""
    fields: list[tuple[str, str, set]] = []  # class, field, calls in its body
    uses: dict[str, set] = {}  # field name -> where the calls that set it are
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                for name in _names_set(node):
                    uses.setdefault(name, set()).add(_spot(top, path, node))
                if top == "src" and _is_config(node):
                    own = {
                        _spot(top, path, sub)
                        for sub in ast.walk(node) if _names_set(sub)
                    }
                    fields += [
                        (node.name, line.target.id, own)
                        for line in node.body
                        if isinstance(line, ast.AnnAssign)
                        and "ClassVar" not in ast.unparse(line.annotation)
                    ]
    return {
        f"{cls}.{name}": {spot[0] for spot in uses.get(name, set()) - own}
        for cls, name, own in fields
    }


def test_every_config_field_is_set_somewhere():
    census = _census()
    assert len(census) > 90  # the walk found the tree
    never_set = [field for field, tops in census.items() if not tops]
    assert not never_set, f"config fields nothing sets: {never_set}"


def test_no_field_only_tests_set():
    census = _census()
    test_only = {field for field, tops in census.items() if tops == {"tests"}}
    unlisted = sorted(test_only - set(TEST_SEAMS))
    assert not unlisted, (
        f"config fields only tests set (make each a constant, or a size "
        f"seam in TEST_SEAMS): {unlisted}"
    )
    stale = sorted(set(TEST_SEAMS) - test_only)
    assert not stale, f"TEST_SEAMS entries no longer test-only: {stale}"
    assert len(census) <= MAX_FIELDS, (
        f"{len(census)} settable config fields, ratchet is {MAX_FIELDS}"
    )


#: What spelled the protection rungs before ``NodeConfig.protection``.
GONE = {
    "ResilienceConfig", "BreakerConfig", "resilient_node_config",
    "full_resilience_config",
}
#: A per-mechanism switch (``breakers_on``, ``hedging_on``, ...).
SWITCH = re.compile(r"[a-z]\w*_on")


def _defined_or_read(node: ast.AST) -> list[str]:
    """The names one node defines, imports or reads as an attribute."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return [node.name]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def test_the_protection_rung_is_the_only_knob():
    paths = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(paths) > 100  # the walk found the tree
    found = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _defined_or_read(node)
        if name in GONE
        or (isinstance(node, ast.Attribute) and SWITCH.fullmatch(name))
    )
    assert not found, f"per-mechanism protection knobs under src/repro: {found}"

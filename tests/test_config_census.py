"""No knob that nothing turns.

Every field of every ``*Config`` / ``*Policy`` dataclass under
``src/repro`` must be set somewhere other than its own class body: as a
keyword of a call or a key of a dict literal (which tests splat into
constructors) in ``src``, ``tests``, ``examples`` or ``benchmarks``, or
as the ``dest`` of a ``flag(...)`` entry of :mod:`repro.tools.cli`. A
field with one value in use is a constant; write it as one, next to the
code that reads it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def _spot(path: Path, node: ast.AST) -> tuple:
    return path, node.lineno, node.col_offset


def test_every_config_field_is_set_somewhere():
    fields: list[tuple[str, str, set]] = []  # class, field, calls in its body
    uses: dict[str, set] = {}  # field name -> where the calls that set it are
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                for name in _names_set(node):
                    uses.setdefault(name, set()).add(_spot(path, node))
                if top == "src" and _is_config(node):
                    own = {_spot(path, sub) for sub in ast.walk(node) if _names_set(sub)}
                    fields += [
                        (node.name, line.target.id, own)
                        for line in node.body
                        if isinstance(line, ast.AnnAssign)
                        and "ClassVar" not in ast.unparse(line.annotation)
                    ]
    assert len(fields) > 100  # the walk found the tree
    never_set = [f"{c}.{n}" for c, n, own in fields if not uses.get(n, set()) - own]
    assert not never_set, f"config fields nothing sets: {never_set}"

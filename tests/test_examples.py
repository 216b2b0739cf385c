"""Every script under ``examples/`` runs to completion as ``__main__``,
and so does the README's API quickstart."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quickstart_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Quickstart (API)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Quickstart)", "exec"), {"__name__": "__main__"})
    assert float(capsys.readouterr().out) > 0  # the retrieval's seconds

"""Every graded subcommand's ``--bench`` run reproduces its committed
``BENCH_*.json`` — one test over the CLI's registered entries, through
the same path CI's ``suite-gates`` rows take (``<name> --bench
--workers N --export FILE`` then ``cmp``).

The comparison is on the canonical text without the host
measurements of the ``telemetry`` block (present on ``scale-crawl``
only): its wall clocks and peak RSS. Its simulated figures — bytes per
peer, materialized peers, events processed — are compared exactly; for
every other artifact that is a byte-for-byte check.
"""

import json
import pathlib

import pytest

from repro.tools.cli import GRADED, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


#: What a ``telemetry`` block measures of the host, not the simulation.
HOST_MEASUREMENTS = ("build_wall_s", "run_wall_s", "peak_rss_mb")


def _comparable(text: str) -> str:
    doc = json.loads(text)
    for key in HOST_MEASUREMENTS:
        doc.get("telemetry", {}).pop(key, None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("entry", GRADED, ids=lambda entry: entry.name)
def test_bench_run_reproduces_the_committed_artifact(entry, tmp_path, capsys):
    regenerated = tmp_path / entry.baseline
    code = main([
        entry.name, "--bench", "--workers", "2", "--export", str(regenerated),
    ])
    capsys.readouterr()
    assert code == 0
    committed = (ROOT / entry.baseline).read_text()
    if "telemetry" not in json.loads(committed):
        assert _comparable(committed) == committed  # canonical on disk
    assert _comparable(regenerated.read_text()) == _comparable(committed), (
        f"{entry.name} --bench drifted from the committed {entry.baseline}; "
        f"regenerate with: python -m repro.tools.cli {entry.name} --bench "
        f"--export {entry.baseline}"
    )

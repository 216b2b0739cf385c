"""The registry-join analysis (Figs 5, 7c, 7d, Tables 2-3), pinned.

:func:`repro.experiments.deployment.analyze_population` sums floats per
country and counts ASes and cloud hosts in ``Counter``s whose ties keep
first-sight order, so a change in the order it visits peers or
addresses moves a digit or a row. The sha256 literals below hash every
field of its result, floats by ``repr``; CI runs this file under
several ``PYTHONHASHSEED`` values.

Regenerate (only for a change that means to move the analysis) with:

    PYTHONPATH=src python -m tests.experiments.test_population_analysis_pins
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.deployment import analyze_population
from repro.utils.rng import derive_rng
from repro.workloads.population import PopulationConfig, generate_population

N_PEERS = 3000

#: seed -> sha256 of the analysis of a 3 000-peer population
PINNED = {
    42: "45fae91c7150515156289f1339eb2e8c65d3489f27f20bfb569d9cf3e0cecb9f",
    7: "944e610d776b993f36cbdb520feba9cd6ca5a99c95e91b55ae8d19086aa729d4",
}


def analysis_sha256(analysis) -> str:
    """Every field's ``repr`` (floats, dict order and row order
    included), one line per field in declaration order."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(analysis):
        line = f"{field.name}={getattr(analysis, field.name)!r}\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def _analysis_digest(seed: int) -> str:
    population = generate_population(
        PopulationConfig(n_peers=N_PEERS), derive_rng(seed, "population")
    )
    return analysis_sha256(analyze_population(population))


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_analysis_is_pinned(seed):
    assert _analysis_digest(seed) == PINNED[seed]


if __name__ == "__main__":
    for seed in sorted(PINNED):
        print(f"    {seed}: {_analysis_digest(seed)!r},")

"""Shared helper for the benches: each writes its rendered report to
``benchmarks/results/<name>.txt`` *and* prints it, so ``pytest
benchmarks/ -s`` shows the reproduction live."""

from __future__ import annotations

import pathlib

# benchmarks/e2e/tests patch tracer shims over the repro modules loaded
# at that moment and restore only those: a module first imported while
# the shims are in place keeps one (test_shims_are_fully_removed fails).
# This file always had the world builder imported before any bench ran,
# and benchmarks/e2e is frozen to feature PRs (a ROADMAP house rule;
# its repair is item 1(b)), so it keeps doing that until the tracer
# resolves its seams before installing.
import repro.experiments.scenario  # noqa: F401

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)

"""The one graded-experiment shape: a claim row and the report around it.

Every graded experiment in this repo — attack, nat, overload, replay,
scale, fidelity, the nat tier — is *config → cells → claims*: a frozen
config, the per-cell measurements it produced, and each measured
quantity set against a reference value through a comparator of
:mod:`repro.validation.compare`. :class:`Claim` is that last row and
:class:`GradedReport` the whole result, with the only ``overall``,
``to_json`` and ``render_text`` there are; an experiment supplies its
config, its cell objects, a declaration of which cell fields to publish
and its claims.

The artifact schema (``BENCH_*.json``) is the same for all of them::

    schema, experiment, config, cells, claims, overall[, telemetry]

serialized canonically — sorted keys, 6-decimal floats, one trailing
newline, nothing wall-clock outside ``telemetry`` — so equal runs are
equal bytes and CI can ``cmp`` against the committed baseline.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Any

from repro.experiments.report import render_table
from repro.validation.compare import Grade, worst_grade

SCHEMA = "repro.graded/v1"


@dataclass(frozen=True)
class Claim:
    """One measured quantity set against its reference value."""

    key: str
    #: ``None`` when the quantity is undefined for this run (an attack
    #: that never bit has no recovery to measure).
    measured: float | None
    #: the paper's number, a floor or a cap; ``None`` = nothing to
    #: compare against.
    expected: float | None
    #: ``None`` = informational: reported, excluded from ``overall``.
    grade: Grade | None
    error: float | None = None
    #: which slice of the experiment the claim is about (an attack at an
    #: intensity, a storm, a backend, a dataset, a seed); "" = all of it.
    scope: str = ""
    description: str = ""

    @classmethod
    def graded(
        cls,
        key: str,
        measured: float | None,
        expected: float,
        verdict: tuple[float | None, Grade],
        *,
        scope: str = "",
        description: str = "",
    ) -> Claim:
        """A claim from a comparator's ``(error, grade)`` verdict."""
        error, grade = verdict
        return cls(key, measured, expected, grade, error, scope, description)

    @property
    def tag(self) -> str:
        return "info" if self.grade is None else self.grade.value

    def render(self) -> str:
        scope = f" [{self.scope}]" if self.scope else ""
        text = f"[{self.tag:>4}] {self.key}{scope}: measured {_number(self.measured)}"
        if self.expected is not None:
            text += f" vs {_number(self.expected)}"
        if self.error is not None:
            text += f" (error {self.error:.3f})"
        if self.description:
            text += f" — {self.description}"
        return text


def cell_field(field: str) -> tuple[str, str, str | None]:
    """``(path, published name, format spec)`` of one declared cell field.

    Written like the inside of an f-string replacement field: ``"attr"``
    goes to the JSON artifact only; ``"attr:spec"`` (``"undialable:.3f"``,
    or a bare ``"mix:"``) is also a column of the text table, floats
    formatted by ``spec``. A dotted path reads through nested objects and
    publishes under its last component (``"config.trace.scale"`` ->
    ``"scale"``).
    """
    path, colon, spec = field.partition(":")
    return path, path.rpartition(".")[2], spec if colon else None


@dataclass
class GradedReport:
    """What a graded experiment returns; see the module docstring."""

    experiment: str
    #: the frozen config dataclass (a list of them for a grid of arms).
    config: Any
    #: per-cell result objects (or mappings), in cell order.
    cells: Sequence[Any]
    #: what a cell publishes, see :func:`cell_field`.
    fields: tuple[str, ...]
    claims: list[Claim]
    #: wall clock, RSS and the like: machine-dependent, so kept apart
    #: from everything the byte-for-byte gates compare.
    telemetry: dict[str, Any] | None = None
    #: rendered tables and figures the claims were read off: printed by
    #: :meth:`render_text` above the claims, not part of the artifact.
    body: str | None = None

    @property
    def overall(self) -> Grade:
        return worst_grade(
            [claim.grade for claim in self.claims if claim.grade is not None]
        )

    #: Held by ``benchmarks/e2e/seams.py`` (``read(report, "rows")``).
    rows = property(lambda self: self.claims)

    def failed(self) -> bool:
        return self.overall is Grade.FAIL

    def to_json_dict(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "config": self.config,
            "cells": [
                {name: _read(cell, path)
                 for path, name, _ in map(cell_field, self.fields)}
                for cell in self.cells
            ],
            "claims": self.claims,
            "overall": self.overall,
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry
        return _canonical(doc)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        config = _canonical(self.config)
        if isinstance(config, dict):
            shape = ", ".join(
                f"{key}={value}" for key, value in config.items()
                if not isinstance(value, (dict, list))
            )
        else:
            shape = f"{len(config)} arms"
        lines = [f"{self.experiment} ({shape})"]
        if self.telemetry is not None:
            lines.append("telemetry: " + ", ".join(
                f"{key}={_number(value)}" for key, value in self.telemetry.items()
            ))
        columns = [
            (path, name, spec)
            for path, name, spec in map(cell_field, self.fields)
            if spec is not None
        ]
        if self.cells and columns:
            lines += ["", render_table(
                f"{len(self.cells)} cells",
                [name for _, name, _ in columns],
                [
                    [_number(_read(cell, path), spec) for path, _, spec in columns]
                    for cell in self.cells
                ],
            )]
        if self.body is not None:
            lines += ["", self.body]
        lines += ["", *(claim.render() for claim in self.claims)]
        tally = Counter(claim.tag for claim in self.claims)
        counts = " / ".join(f"{tally[grade.value]} {grade.value}" for grade in Grade)
        info = f", {tally['info']} info" if tally["info"] else ""
        lines.append(f"overall: {self.overall.value} ({counts}{info})")
        return "\n".join(lines)


def _read(cell: Any, path: str) -> Any:
    if isinstance(cell, Mapping):
        return cell[path]
    return reduce(getattr, path.split("."), cell)


def _number(value: Any, spec: str = "") -> str:
    if value is None:
        return "-"
    return format(value, spec or ".6g") if isinstance(value, float) else str(value)


def _canonical(value: Any) -> Any:
    """JSON-ready and byte-stable: dataclasses and mappings to dicts,
    sequences to lists, enums to their values, floats to 6 decimals."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return round(value, 6)
    if dataclasses.is_dataclass(value):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value

"""Multiprocess fan-out over independent experiment cells.

Sweep experiments (chaos, the attack matrix, the figures) decompose
into *cells* — (arm, intensity, seed) combinations that each build a fresh
world from RNGs derived deterministically from the experiment seed and
the cell's own identity (see :func:`repro.utils.rng.derive_rng`). No
state flows between cells, so they can run in any order on any number
of worker processes and produce bit-identical results; all scheduling
nondeterminism is erased by reassembling results in cell order.

``run_cells(cells, workers=1)`` is therefore the experiment-level
parallelism primitive: ``workers <= 1`` runs every cell inline (no
subprocesses, no pickling — the exact call sequence the sequential
code always made, and no pool module imported), larger values shard
cells across a :class:`~concurrent.futures.ProcessPoolExecutor`.
Callers merging results into JSONL get byte-identical files for any
worker count.

Cells must be picklable: module-level functions with dataclass/config
arguments. Closures and per-cell ``Observability`` objects are not — a
caller that wants a level traced runs that cell's function itself.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``fn`` must be a module-level callable (picklable); ``args`` are
    passed positionally. ``label`` identifies the cell in logs and
    error messages.
    """

    label: str
    fn: Callable[..., Any]
    args: tuple = field(default_factory=tuple)

    def run(self) -> Any:
        return self.fn(*self.args)


class CellError(RuntimeError):
    """A cell raised; carries the cell label for attribution."""

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(f"experiment cell {label!r} failed: {cause!r}")
        self.label = label


def _run_picklable(fn: Callable[..., Any], args: tuple) -> Any:
    # Module-level trampoline so the pool pickles (fn, args) rather
    # than a Cell instance.
    return fn(*args)


def run_cells(cells: Iterable[Cell], workers: int = 1) -> list[Any]:
    """Run every cell; return results in cell order.

    ``workers <= 1`` (or a single cell) executes inline in submission
    order. Otherwise cells are sharded across ``workers`` processes;
    results are reassembled by cell index, so the output is identical
    to the inline path no matter how the pool schedules them.
    """
    cells = list(cells)
    if workers <= 1 or len(cells) <= 1:
        results = []
        for cell in cells:
            try:
                results.append(cell.run())
            except Exception as exc:
                raise CellError(cell.label, exc) from exc
        return results
    # imported here, so a process that only runs cells inline loads
    # neither `concurrent.futures` nor `multiprocessing` (about 2 MiB)
    from concurrent.futures import ProcessPoolExecutor

    results = [None] * len(cells)
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures = [
            pool.submit(_run_picklable, cell.fn, cell.args) for cell in cells
        ]
        for index, (cell, future) in enumerate(zip(cells, futures)):
            try:
                results[index] = future.result()
            except Exception as exc:
                raise CellError(cell.label, exc) from exc
    return results


def sweep_cells(
    label: str,
    fn: Callable[..., Any],
    config: Any,
    arms: Sequence[str],
    values: Sequence[float],
) -> list[Cell]:
    """Cells for an (arm x value) sweep of one config: for each named
    arm every value (e.g. a fault intensity) yields
    ``Cell(fn, (config, arm, value))`` labelled ``label[arm]@value``, in
    arm-major order — the order sequential sweep code runs them in.
    """
    return [
        Cell(f"{label}[{arm}]@{value:g}", fn, (config, arm, value))
        for arm in arms
        for value in values
    ]

"""The one path every graded subcommand takes, and the one the dataset
subcommands take.

A graded experiment is *config → cells → claims*
(:mod:`repro.validation.report`), so its subcommand is one
:class:`Graded` entry in :data:`repro.tools.cli.GRADED` and nothing
else: :func:`add_graded` builds the parser (the entry's own flags plus
the shared ``--workers`` / ``--export`` / ``--bench``) and
:func:`run_graded` does flags → config → run → print → write → exit
code. Bad input is refused by the parser (exit 2, nothing run); the
artifact is written through a temp file and ``os.replace``, so an
interrupted run cannot truncate a committed ``BENCH_*.json``.

A dataset subcommand is *run → figures → records*: one
:class:`Dataset` entry in :data:`repro.tools.cli.DATASETS`, parsed by
:func:`add_dataset` and run by :func:`run_dataset`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
from collections.abc import Callable, Sequence
from typing import Any

from repro.experiments.figures import render_dataset
from repro.obs import Observability
from repro.validation.report import GradedReport


@dataclasses.dataclass(frozen=True)
class Graded:
    """One graded subcommand."""

    name: str
    help: str
    #: the committed artifact ``--bench`` reproduces byte for byte.
    baseline: str
    #: ``config(seed=..., **overrides)`` for a run shaped by the flags.
    config: Callable[..., Any]
    #: the frozen config behind ``baseline`` (``--bench``).
    bench: Callable[[], Any]
    run: Callable[[Any, int], GradedReport]
    #: the experiment's own flags, see :func:`flag`.
    flags: Sequence[tuple[str, dict[str, Any]]] = ()


def flag(option: str, dest: str, help: str, **kwargs: Any) -> tuple[str, dict]:
    """``option`` overrides the ``dest`` keyword of :attr:`Graded.config`;
    left unset (``None``) the experiment's own default stands."""
    if "type" in kwargs:  # usage names the value after the flag, not the field
        kwargs["metavar"] = option.lstrip("-").replace("-", "_").upper()
    return option, dict(dest=dest, help=help, **kwargs)


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def csv_of(choices: Sequence[str]) -> Callable[[str], tuple[str, ...]]:
    """An argparse type: a comma-separated subset of ``choices``."""

    def parse(text: str) -> tuple[str, ...]:
        values = tuple(part.strip() for part in text.split(","))
        for value in values:
            if value not in choices:
                raise argparse.ArgumentTypeError(
                    f"unknown name {value!r} (choose from {', '.join(choices)})"
                )
        return values

    return parse


def probability_list(text: str) -> tuple[float, ...]:
    """An argparse type: comma-separated probabilities in [0, 1]."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated probabilities, got {text!r}"
        ) from None
    for value in values:
        if not 0.0 <= value <= 1.0:  # written so NaN is refused too
            raise argparse.ArgumentTypeError(
                f"expected probabilities in [0, 1], got {value}"
            )
    return values


def scaled(parse: Callable[[str], Any], factor: float) -> Callable[[str], Any]:
    """An argparse type for a flag in one unit feeding a config field in
    another (hours to seconds, KiB to bytes)."""

    def convert(text: str) -> Any:
        return parse(text) * factor

    convert.__name__ = parse.__name__  # what argparse calls it in errors
    return convert


def writable_path(text: str) -> str:
    """Refuse, before anything runs, a destination the run could not
    be written to afterwards."""
    directory = os.path.dirname(os.path.abspath(text))
    if os.path.isdir(text) or not os.access(directory, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"cannot write to {text!r}")
    return text


def write_atomic(path: str, text: str) -> None:
    """All of ``text`` at ``path``, or ``path`` untouched."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def add_graded(sub: Any, entry: Graded) -> None:
    parser = sub.add_parser(entry.name, help=entry.help)
    parser.set_defaults(graded=entry)
    for option, kwargs in entry.flags:
        parser.add_argument(option, **kwargs)
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="worker processes sharding the cells "
                             "(scale-crawl is one world = one cell and "
                             "ignores it); output is identical for any "
                             "value")
    parser.add_argument("--export", metavar="FILE", type=writable_path,
                        help=f"write the graded JSON artifact "
                             f"({entry.baseline} style)")
    parser.add_argument("--bench", action="store_true",
                        help=f"use the frozen {entry.baseline} configuration "
                             "(overrides the experiment's own flags)")


def run_graded(args: argparse.Namespace) -> int:
    """Run the graded subcommand ``args`` was parsed for; exit code 1
    when any claim FAILs."""
    entry: Graded = args.graded
    if args.bench:
        config = entry.bench()
        if args.seed is not None:  # an explicit seed beats the frozen one
            config = (
                [dataclasses.replace(arm, seed=args.seed) for arm in config]
                if isinstance(config, list)  # replay: one config per arm
                else dataclasses.replace(config, seed=args.seed)
            )
    else:
        given = {kw["dest"]: getattr(args, kw["dest"]) for _, kw in entry.flags}
        config = entry.config(
            seed=args.seed,
            **{key: value for key, value in given.items() if value is not None},
        )
    report = entry.run(config, args.workers)
    print(report.render_text())
    if args.export:
        write_atomic(args.export, report.to_json())
        print(f"\nwrote graded {entry.name} report to {args.export}")
    return 1 if report.failed() else 0


@dataclasses.dataclass(frozen=True)
class Dataset:
    """One dataset subcommand."""

    name: str
    help: str
    #: argparse arguments: ``(option, kwargs)``.
    flags: Sequence[tuple[str, dict[str, Any]]]
    #: ``run(args, obs) -> results``; ``obs`` records spans when the
    #: subcommand has a ``body`` or ``--trace FILE`` was given.
    run: Callable[[argparse.Namespace, Observability | None], Any]
    #: file flags: ``(dest, help, what a row is called,
    #: write(results, obs, path) -> rows)``.
    outputs: Sequence[tuple[str, str, str, Callable[[Any, Any, str], int]]] = ()
    #: ``body(obs) -> str``, for a subcommand that prints what it reads
    #: off the run's spans (so always traced) instead of the figures of
    #: the dataset named like it.
    body: Callable[[Observability], str] | None = None


def add_dataset(sub: Any, entry: Dataset) -> None:
    parser = sub.add_parser(entry.name, help=entry.help)
    parser.set_defaults(dataset=entry)
    for option, kwargs in entry.flags:
        parser.add_argument(option, **kwargs)
    for dest, text, _, _ in entry.outputs:
        parser.add_argument(f"--{dest}", metavar="FILE", type=writable_path,
                            help=text)


def run_dataset(args: argparse.Namespace) -> int:
    entry: Dataset = args.dataset
    obs = Observability() if entry.body or getattr(args, "trace", None) else None
    results = entry.run(args, obs)
    print(entry.body(obs) if entry.body else render_dataset(entry.name, results))
    paths = [(getattr(args, dest), noun, write) for dest, _, noun, write in entry.outputs]
    written = [
        f"wrote {write(results, obs, path)} {noun} to {path}"
        for path, noun, write in paths if path
    ]
    if written:
        print("\n" + "\n".join(written))
    return 0

"""The end-to-end benchmark: four paper pipelines, measured from outside.

Usage (from the repository root; no ``PYTHONPATH`` needed)::

    python benchmarks/e2e/run.py                      # full pass, 3 reps each
    python benchmarks/e2e/run.py --workload crawl     # one workload
    python benchmarks/e2e/run.py --trace              # + one traced rep each
    python benchmarks/e2e/run.py --smoke              # seconds, not minutes
    python benchmarks/e2e/run.py --compare A.json B.json

and, as ``BENCHMARK.json`` runs it::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

which measures one workload for about ``S`` seconds and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).

Every repetition runs in a fresh child process (``child.py``), one at a
time. Host times are medians over repetitions and say so; simulated
statistics are exact per seed and are checked to repeat bit-for-bit.
See ``README.md`` for what each workload stresses and bypasses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import compare
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = HERE / "results"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 42
DEFAULT_REPS = 3
#: A repetition whose wall time exceeds its own CPU time by more than
#: this was descheduled: it is discarded and rerun.
DESCHEDULED_RATIO = 1.05
#: One root operation in this many keeps its full span records.
SAMPLE_EVERY = 100
#: The contract allows one run 180 s.
RUN_CAP_S = 150.0
#: In contract mode, reruns of discarded repetitions may stretch a run
#: to this multiple of ``--seconds``; then it reports what it has.
DISCARD_PATIENCE = 1.5


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------


def run_child(
    workload: str, seed: int, profile: str, traced: bool,
    spans_out: Path | None = None, timeout: float = RUN_CAP_S,
) -> dict[str, Any]:
    """Run one repetition in a fresh process; return its report with
    the host-side measurements (wall, CPU, derived metrics) added."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spec = {
        "workload": workload, "seed": seed, "profile": profile,
        "trace": traced, "sample_every": SAMPLE_EVERY,
        "spans_out": str(spans_out) if spans_out else None,
        "spawned_at": time.perf_counter(),
    }
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchmarkError(f"{workload}: repetition exceeded {timeout:.0f} s")
    wall_s = time.perf_counter() - spec["spawned_at"]
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if process.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited with status {process.returncode}"
        )
    report = json.loads(stdout.strip().splitlines()[-1])
    # children run one at a time, so the delta is this child's CPU
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    report["raw_wall_s"] = wall_s
    report["cpu_s"] = cpu_s
    report["descheduled"] = wall_s > DESCHEDULED_RATIO * cpu_s
    # host times are scaled by the host speed measured while they ran
    # (child.py: SpeedTicks; 1.0 = reference speed); the child has done
    # that for the stages, the two phases of the wall time are left
    stages = report["stages"]
    # rates over a stage time: an exact count / a host time
    stages["workloads.items_per_s"] = \
        report["items"] / stages["workloads.generate_s"]
    events = report["counts"].get("simnet.sim.events")
    if events:
        stages["simnet.sim.us_per_event"] = \
            1e6 * stages["experiments.campaign_s"] / events
    setup = report["raw_setup_s"] * report["setup_speed"]
    wall = setup + (wall_s - report["raw_setup_s"]) * report["run_speed"]
    report["end_to_end"] = {
        "wall_s": wall,
        "setup_s": setup,
        "ops_per_s": report["ops"] / (wall - setup),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_ratio": 1.0 - report["failed"] / report["attempted"],
    }
    return report


# ----------------------------------------------------------------------
# a set of repetitions
# ----------------------------------------------------------------------


def summarize(values: list[float]) -> dict[str, Any]:
    return {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "values": values,
    }


def measure(
    names: list[str], seed: int, profile: str, reps: int,
    seconds: float | None, traced: bool,
) -> dict[str, dict[str, Any]]:
    """Run the repetitions, round-robin across workloads so that drift
    hits all alike (A B C D A B C D ...), then one traced repetition
    per workload if asked.

    With ``seconds`` set, a workload keeps repeating while another
    repetition still fits the budget (and until it has ``reps``).
    """
    started = time.perf_counter()
    kept: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    discarded = {name: 0 for name in names}
    last_discarded: dict[str, dict[str, Any]] = {}
    longest = {name: 0.0 for name in names}

    def wants_more(name: str) -> bool:
        elapsed = time.perf_counter() - started
        if len(kept[name]) < reps:
            # discards are rerun, but not for ever on a loaded box
            if seconds is not None:
                return elapsed < DISCARD_PATIENCE * seconds
            return len(kept[name]) + discarded[name] < 2 * reps + 1
        return seconds is not None and elapsed + longest[name] <= seconds

    while True:
        ran = False
        for name in names:
            if not wants_more(name):
                continue
            ran = True
            report = run_child(name, seed, profile, traced=False)
            longest[name] = max(longest[name], report["raw_wall_s"])
            if report["descheduled"]:
                discarded[name] += 1
                print(f"  {name}: discarded a descheduled repetition "
                    f"(wall {report['raw_wall_s']:.2f} s, "
                    f"cpu {report['cpu_s']:.2f} s)")
                last_discarded[name] = report
                continue
            kept[name].append(report)
            print(f"  {name}: rep {len(kept[name])} wall "
                f"{report['end_to_end']['wall_s']:.2f} s "
                f"(raw {report['raw_wall_s']:.2f} s, "
                f"host speed {report['host_speed']:.2f})")
        if not ran:
            break
    for name in names:
        if not kept[name]:
            # a box that deschedules everything still gets a number,
            # and the discard count says what it is worth
            if name in last_discarded:
                kept[name].append(last_discarded[name])
            else:
                raise BenchmarkError(f"{name}: no repetition completed")

    results: dict[str, dict[str, Any]] = {}
    for name in names:
        results[name] = aggregate(name, profile, seed, kept[name], discarded[name])
    if traced:
        RESULTS_DIR.mkdir(exist_ok=True)
        for name in names:
            spans_out = RESULTS_DIR / f"spans-{profile}-{name}-seed{seed}.json"
            report = run_child(name, seed, profile, traced=True, spans_out=spans_out)
            print(f"  {name}: traced rep wall "
                f"{report['end_to_end']['wall_s']:.2f} s")
            results[name]["trace"] = trace_section(
                report, results[name], spans_out
            )
    return results


def aggregate(
    name: str, profile: str, seed: int,
    reports: list[dict[str, Any]], discarded: int,
) -> dict[str, Any]:
    first = reports[0]
    digests = {report["sim_digest"] for report in reports}
    counts_repeat = all(
        report["counts"] == first["counts"] for report in reports
    )
    checks = {
        check: all(report["checks"][check] for report in reports)
        for check in first["checks"]
    }
    checks["digest_repeats"] = len(digests) == 1
    checks["counts_repeat"] = counts_repeat
    return {
        "op_unit": workloads.OP_UNITS[name],
        "size": workloads.SIZES[profile][name],
        "ops": first["ops"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "sim_digest": first["sim_digest"],
        "digest_changed": digest_changed(name, profile, seed, first["sim_digest"]),
        "discarded": discarded,
        "host_speed": summarize([r["host_speed"] for r in reports]),
        "raw_wall_s": summarize([r["raw_wall_s"] for r in reports]),
        "end_to_end": {
            metric: summarize([r["end_to_end"][metric] for r in reports])
            for metric in metrics.END_TO_END_NAMES
        },
        "stages": {
            stage: summarize([r["stages"][stage] for r in reports])
            for stage in first["stages"]
        },
        "counts": first["counts"],
        "checks": checks,
    }


def digest_changed(name: str, profile: str, seed: int, digest: str) -> bool | None:
    """Compare with the digest recorded in ``reference.json``: ``None``
    when nothing comparable is recorded (other seed, size or profile).

    A mismatch is flagged, not failed: a later PR that changes
    behaviour cannot edit the benchmark, so its reviewer reads the flag.
    A change meant only to speed the simulator up must leave it False.
    """
    if not REFERENCE.exists():
        return None
    reference = json.loads(REFERENCE.read_text())
    recorded = reference.get("workloads", {}).get(name)
    if (
        recorded is None
        or reference.get("seed") != seed
        or reference.get("profile") != profile
        or recorded.get("size") != workloads.SIZES[profile][name]
    ):
        return None
    return recorded["sim_digest"] != digest


def trace_section(
    report: dict[str, Any], untraced: dict[str, Any], spans_out: Path
) -> dict[str, Any]:
    """The (T) metrics of one traced repetition."""
    trace = report["trace"]
    speed = report["host_speed"]
    wall = report["end_to_end"]["wall_s"]
    layers = {
        layer: {"self_s": row["self_s"] * speed, "calls": row["calls"]}
        for layer, row in trace["layers"].items()
    }
    attributed = sum(row["self_s"] for row in layers.values())
    baseline = untraced["end_to_end"]["wall_s"]["median"]
    return {
        "wall_s": wall,
        "window_s": trace["window_s"] * speed,
        "layers": layers,
        "obs": {
            "obs.trace_overhead_ratio": wall / baseline - 1.0,
            # time under no shim: interpreter start, imports, the
            # benchmark's own glue and digests, process exit
            "obs.unattributed_share": (wall - attributed) / wall,
            "obs.spans": trace["spans_recorded"],
        },
        "window_unattributed_s": trace["unattributed_s"] * speed,
        "ops_traced": trace["ops"],
        "spans_dropped": trace["spans_dropped"],
        "open_spans_at_exit": trace["open_spans_at_exit"],
        "sample_every": trace["sample_every"],
        "spans_file": str(spans_out.relative_to(ROOT)),
        "sim_digest": report["sim_digest"],
        "digest_matches_untraced":
            report["sim_digest"] == untraced["sim_digest"],
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def per_layer_values(result: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric this workload produced, by name."""
    values: dict[str, float] = {
        stage: summary["median"] for stage, summary in result["stages"].items()
    }
    values.update(result["counts"])
    trace = result.get("trace")
    if trace is not None:
        for layer, row in trace["layers"].items():
            values[f"{layer}.self_s"] = row["self_s"]
            values[f"{layer}.calls"] = row["calls"]
        values.update(trace["obs"])
    return values


def correct(result: dict[str, Any]) -> bool:
    ok = all(result["checks"].values())
    trace = result.get("trace")
    if trace is not None:
        ok = ok and trace["digest_matches_untraced"] \
            and trace["open_spans_at_exit"] == 0
    return ok


def render(name: str, result: dict[str, Any], seed: int) -> str:
    size = ", ".join(f"{key}={value}" for key, value in result["size"].items())
    reps = result["end_to_end"]["wall_s"]["n"]
    lines = [
        f"== {name}: {result['ops']} {result['op_unit']} ({size}), "
        f"seed {seed}, {reps} reps, {result['discarded']} discarded",
        "  end to end (host clock, medians; ok_ratio exact)",
    ]

    def row(metric: str, summary: dict[str, Any]) -> str:
        return (
            f"    {metric:<34} {summary['median']:>14.6g} "
            f"{metrics.UNITS[metric]:<9} "
            f"min {summary['min']:.6g} max {summary['max']:.6g} "
            f"n={summary['n']}"
        )

    for metric in metrics.END_TO_END_NAMES:
        lines.append(row(metric, result["end_to_end"][metric]))
    lines.append(
        f"    (host speed {result['host_speed']['median']:.3f} of reference; "
        f"raw wall {result['raw_wall_s']['median']:.3f} s)"
    )
    lines.append("  per layer, S: stage timings (host clock, medians)")
    for stage, summary in result["stages"].items():
        lines.append(row(stage, summary))
    lines.append("  per layer, C: exact counts and the model's own results (sim clock)")
    for key, value in result["counts"].items():
        text = f"    {key:<34} {value:>14.6g} {metrics.UNITS[key]:<9}"
        paper = metrics.PAPER_VALUES.get(key)
        if paper is not None:
            text += f" paper {paper:g}, error {100 * (value / paper - 1):+.1f} %"
        lines.append(text)
    trace = result.get("trace")
    if trace is not None:
        lines.append(
            f"  per layer, T: traced run (wall {trace['wall_s']:.3f} s, "
            f"{trace['ops_traced']} root operations, 1 in "
            f"{trace['sample_every']} sampled -> {trace['spans_file']})"
        )
        ranked = sorted(
            trace["layers"].items(), key=lambda item: -item[1]["self_s"]
        )
        for layer, data in ranked:
            share = data["self_s"] / trace["wall_s"]
            lines.append(
                f"    {layer + '.self_s':<34} {data['self_s']:>14.6g} s         "
                f"{100 * share:5.1f} % of traced wall, "
                f"{layer}.calls {data['calls']}"
            )
        for key, value in trace["obs"].items():
            lines.append(f"    {key:<34} {value:>14.6g} {metrics.UNITS[key]}")
    verdicts = [
        f"{check} {'ok' if passed else 'FAILED'}"
        for check, passed in result["checks"].items()
    ]
    if trace is not None:
        verdicts.append(
            "traced digest "
            + ("== untraced" if trace["digest_matches_untraced"] else "DIFFERS")
        )
    changed = result["digest_changed"]
    verdicts.append(
        "reference digest "
        + ("n/a" if changed is None else "digest_changed" if changed else "same")
    )
    lines.append("  checks: " + ", ".join(verdicts))
    lines.append(f"  sim_digest {result['sim_digest']}")
    return "\n".join(lines)


def clock_floor(reads: int = 4096) -> float:
    """What one reading of the host clock costs, measured now (~50 ns).

    The contract wants every per-layer metric from every workload, and
    every time as measured, never a constant. A layer that is not on a
    workload's path spent no time at all; the honest non-constant
    number for it is the resolution floor of any time reported here.
    """
    started = time.perf_counter()
    for _ in range(reads):
        time.perf_counter()
    return (time.perf_counter() - started) / reads


def contract_line(result: dict[str, Any], traced: bool) -> str:
    """The last line the driver reads."""
    if traced:
        values = per_layer_values(result)
        # a layer that is not on this workload's path did no work: its
        # counts are 0 and its times are the clock's floor
        body = {
            name: {
                "value": float(values.get(name, 0.0))
                or (clock_floor() if metrics.UNITS[name] == "s" else 0.0),
                "unit": metrics.UNITS[name],
            }
            for name in metrics.PER_LAYER_NAMES
        }
    else:
        body = {
            name: {"value": result["end_to_end"][name]["median"],
                   "unit": metrics.UNITS[name]}
            for name in metrics.END_TO_END_NAMES
        }
    reps = result["end_to_end"]["wall_s"]["n"]
    return json.dumps({
        "correct": correct(result),
        "attempted": result["attempted"] * reps,
        "failed": result["failed"] * reps,
        "metrics": body,
    })


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark of the four paper pipelines"
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="repetitions per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="contract mode: keep repeating --workload while "
                             "another repetition fits this budget, then print "
                             "the result line")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="add one traced repetition per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: every workload under ~2 s")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default: benchmarks/e2e/results/)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files and exit")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        parser.error("--seconds needs --workload")
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.compare:
        return compare.main(Path(args.compare[0]), Path(args.compare[1]))
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmark seam `src/repro` is gone: nothing to measure",
              file=sys.stderr)
        return 2

    profile = "smoke" if args.smoke else "bench"
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traced = bool(args.trace)
    contract = args.seconds is not None
    # a traced contract run reports per-layer numbers only: one
    # untraced repetition (stages, counts, overhead base) + the traced
    reps = 1 if contract and traced else args.reps
    seconds = None if traced else args.seconds
    print(f"e2e benchmark: profile {profile}, seed {args.seed}, "
          f"workloads {', '.join(names)}")
    try:
        results = measure(names, args.seed, profile, reps, seconds, traced)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    document = {
        "schema": "repro.e2e/v1",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "profile": profile,
        "seed": args.seed,
        "reps": reps,
        "workloads": results,
    }
    out = args.out
    if out is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        scope = args.workload or "all"
        out = RESULTS_DIR / (
            f"{profile}-{scope}-seed{args.seed}-trace{int(traced)}.json"
        )
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

    for name in names:
        print(render(name, results[name], args.seed))
    print(f"results written to {out}")
    all_correct = all(correct(result) for result in results.values())
    if contract:
        print(contract_line(results[names[0]], traced))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

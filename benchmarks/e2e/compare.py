"""``run.py --compare A.json B.json``: the table a PR pastes.

One row per (workload, end-to-end metric): both medians, the ratio
B / A *with its base*, the metric's bound and a verdict —

- ``regressed``  B's median is worse than A's by more than the bound;
- ``unresolved`` not regressed, but the run-to-run spread of either
  side is wider than the bound, so "no change" cannot be claimed;
- ``ok``         neither.

Below the table: whether each workload's ``sim_digest`` matched. A
change meant only to speed the simulator up must match everywhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import metrics


def spread(summary: dict[str, Any]) -> float:
    """Full range of the repetitions as a share of their median."""
    return (summary["max"] - summary["min"]) / summary["median"]


def verdict(metric: metrics.EndToEnd, a: dict[str, Any], b: dict[str, Any]) -> str:
    base, new = a["median"], b["median"]
    if metric.better == "lower":
        regressed = new > base * (1.0 + metric.bound)
    else:
        regressed = new < base * (1.0 - metric.bound)
    if regressed:
        return "regressed"
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved"
    return "ok"


def rows(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    table = []
    for name, result_a in a["workloads"].items():
        result_b = b["workloads"].get(name)
        if result_b is None:
            continue
        for metric in metrics.END_TO_END:
            summary_a = result_a["end_to_end"][metric.name]
            summary_b = result_b["end_to_end"][metric.name]
            table.append({
                "workload": name,
                "metric": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "a": summary_a["median"],
                "b": summary_b["median"],
                "ratio": summary_b["median"] / summary_a["median"],
                "spread_a": spread(summary_a),
                "spread_b": spread(summary_b),
                "bound": metric.bound,
                "verdict": verdict(metric, summary_a, summary_b),
            })
    return table


def render(a_path: Path, b_path: Path, a: dict[str, Any], b: dict[str, Any]) -> str:
    lines = [
        f"A = {a_path} (seed {a['seed']}, {a['profile']})",
        f"B = {b_path} (seed {b['seed']}, {b['profile']})",
        f"{'workload':<8} {'metric':<12} {'A median':>12} {'B median':>12} "
        f"{'unit':<6} {'B/A (base A)':>22} {'spread A/B':>13} "
        f"{'bound':>6}  verdict",
    ]
    for row in rows(a, b):
        lines.append(
            f"{row['workload']:<8} {row['metric']:<12} {row['a']:>12.5g} "
            f"{row['b']:>12.5g} {row['unit']:<6} "
            f"{row['ratio']:>8.3f} of {row['a']:<10.5g} "
            f"{100 * row['spread_a']:>5.1f}/{100 * row['spread_b']:<5.1f} % "
            f"{100 * row['bound']:>5.1f}%  {row['verdict']}"
            f" ({row['better']} is better)"
        )
    for name, result_a in a["workloads"].items():
        result_b = b["workloads"].get(name)
        if result_b is None:
            lines.append(f"sim_digest {name}: only in A")
            continue
        same = result_a["sim_digest"] == result_b["sim_digest"]
        lines.append(
            f"sim_digest {name}: {'match' if same else 'DIFFER'} "
            f"({result_a['sim_digest'][:12]} vs {result_b['sim_digest'][:12]})"
        )
    return "\n".join(lines)


def main(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    if (a["seed"], a["profile"]) != (b["seed"], b["profile"]):
        print("warning: the two files differ in seed or profile; "
              "digests cannot match and times are not comparable")
    print(render(a_path, b_path, a, b))
    return 0

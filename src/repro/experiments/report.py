"""Text rendering for reproduced tables and figures.

Every benchmark prints its table/figure through these helpers so the
output is uniform: a title, the paper's reference values where we have
them, and the measured rows/series.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.utils.stats import Cdf


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str | None = None,
) -> str:
    """A fixed-width text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"== {title} =="]
    if note:
        lines.append(note)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_cdf(
    title: str,
    cdf: Cdf,
    grid: Sequence[float] | None = None,
    unit: str = "s",
    percent_grid: Sequence[float] = (5, 25, 50, 75, 90, 95, 99),
) -> str:
    """A CDF summarized two ways: P(X <= x) on a grid, and quantiles."""
    lines = [f"== {title} =="]
    if grid is not None:
        lines.append("  ".join(
            f"P(<={x:g}{unit})={cdf.probability_at(x) * 100:5.1f}%" for x in grid
        ))
    lines.append("  ".join(
        f"p{int(p)}={cdf.value_at(p / 100):.3g}{unit}" for p in percent_grid
    ))
    return "\n".join(lines)


def render_share_table(
    title: str,
    shares: dict[str, float],
    top: int = 10,
    reference: dict[str, float] | None = None,
) -> str:
    """Share distributions (country shares, tier shares, ...)."""
    headers = ["key", "measured"]
    if reference:
        headers.append("paper")
    rows = []
    for key, value in list(shares.items())[:top]:
        row = [key, f"{value * 100:5.1f} %"]
        if reference:
            ref = reference.get(key)
            row.append(f"{ref * 100:5.1f} %" if ref is not None else "-")
        rows.append(row)
    return render_table(title, headers, rows)


def render_series(
    title: str,
    series: Iterable[tuple[float, object]],
    every: int = 1,
    x_label: str = "t",
) -> str:
    """A compact time-series dump (used for Figs 4a/4b/11b)."""
    lines = [f"== {title} =="]
    for index, (x, y) in enumerate(series):
        if index % every:
            continue
        lines.append(f"{x_label}={x:>10.0f}  {y}")
    return "\n".join(lines)

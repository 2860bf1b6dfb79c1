"""Terminal chart rendering for experiment results.

The paper's artifacts are figures; ``repro-experiments --charts`` renders
the swept series as Unicode line/bar charts so the curve *shapes* — which
is what this reproduction is judged on — are visible without matplotlib
(which the offline environment does not ship).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult

_BAR = "▏▎▍▌▋▊▉█"
_DOTS = "·"


def bar_chart(
    labels: list[str],
    values: list[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bar chart; negative values render leftward markers."""
    if len(labels) != len(values):
        raise ConfigurationError("labels and values must align")
    if not values:
        return "(no data)"
    label_width = max(len(str(label)) for label in labels)
    peak = max(abs(v) for v in values) or 1.0
    lines = []
    for label, value in zip(labels, values):
        filled = abs(value) / peak * width
        whole = int(filled)
        frac = filled - whole
        bar = "█" * whole
        if frac > 1 / 16:
            bar += _BAR[min(7, int(frac * 8))]
        sign = "-" if value < 0 else ""
        lines.append(
            f"{str(label):>{label_width}} |{sign}{bar} {value:g}{unit}"
        )
    return "\n".join(lines)


def line_chart(
    xs: list[float],
    series: dict[str, list[float]],
    height: int = 12,
    width: int = 64,
    logx: bool = True,
) -> str:
    """Multi-series scatter/line chart on a character grid.

    Each series gets a marker; x may be log-scaled (capacity sweeps are).
    """
    if not series:
        raise ConfigurationError("need at least one series")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ConfigurationError(f"series {name!r} does not match x length")
    markers = "ox+*#@%&"
    all_y = [y for ys in series.values() for y in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def x_pos(x: float) -> int:
        if logx:
            lo, hi = math.log(min(xs)), math.log(max(xs))
            t = 0.0 if hi == lo else (math.log(x) - lo) / (hi - lo)
        else:
            lo, hi = min(xs), max(xs)
            t = 0.0 if hi == lo else (x - lo) / (hi - lo)
        return min(width - 1, int(t * (width - 1)))

    def y_pos(y: float) -> int:
        t = (y - y_lo) / (y_hi - y_lo)
        return min(height - 1, int(t * (height - 1)))

    grid = [[" "] * width for _ in range(height)]
    for (name, ys), marker in zip(series.items(), markers):
        for x, y in zip(xs, ys):
            row = height - 1 - y_pos(y)
            grid[row][x_pos(x)] = marker

    axis_width = max(len(f"{y_hi:g}"), len(f"{y_lo:g}"))
    lines = []
    for i, row in enumerate(grid):
        label = ""
        if i == 0:
            label = f"{y_hi:g}"
        elif i == height - 1:
            label = f"{y_lo:g}"
        lines.append(f"{label:>{axis_width}} |" + "".join(row))
    lines.append(" " * axis_width + " +" + "-" * width)
    lines.append(
        " " * axis_width
        + f"  {min(xs):g}"
        + " " * max(1, width - len(f"{min(xs):g}") - len(f"{max(xs):g}") - 2)
        + f"{max(xs):g}"
        + ("  (log x)" if logx else "")
    )
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), markers)
    )
    lines.append(" " * axis_width + "  " + legend)
    return "\n".join(lines)


def render_experiment_charts(result: ExperimentResult) -> str:
    """Best-effort chart rendering of an ExperimentResult's swept series.

    Rows with a ``series`` key and numeric ``x`` are grouped into line
    charts (one per series, numeric columns as sub-series); everything
    else is left to the text table.
    """
    groups: dict[str, list[dict]] = {}
    for row in result.rows:
        if "series" in row and isinstance(row.get("x"), (int, float)):
            groups.setdefault(row["series"], []).append(row)

    charts = []
    for name, rows in groups.items():
        xs = [row["x"] for row in rows]
        if len(xs) < 3:
            continue
        numeric_cols = [
            key
            for key in rows[0]
            if key not in ("series", "x")
            and all(isinstance(r.get(key), (int, float)) for r in rows)
        ]
        if not numeric_cols:
            continue
        series = {col: [float(r[col]) for r in rows] for col in numeric_cols}
        logx = min(xs) > 0 and max(xs) / max(min(xs), 1e-9) > 20
        charts.append(f"-- {name} --")
        charts.append(line_chart([float(x) for x in xs], series, logx=logx))
    return "\n".join(charts) if charts else "(no sweep series to chart)"

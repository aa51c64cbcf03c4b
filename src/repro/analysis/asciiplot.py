"""Terminal plots for queue trajectories and scaling series.

The repository runs in offline environments, so "figures" are rendered
as text: a block-character sparkline for single series and a
multi-series line chart on a character canvas. Used by the examples
and the benches; precision lives in the tables, the plots carry the
shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(series: Sequence[float], width: int = 60) -> str:
    """A one-line density plot of ``series`` resampled to ``width``."""
    values = [float(v) for v in series]
    if not values:
        return ""
    if len(values) > width:
        # Bucket means keep the trend readable.
        bucket = len(values) / width
        values = [
            sum(values[int(k * bucket): max(int(k * bucket) + 1,
                                            int((k + 1) * bucket))])
            / max(1, len(values[int(k * bucket): max(int(k * bucket) + 1,
                                                     int((k + 1) * bucket))]))
            for k in range(width)
        ]
    low, high = min(values), max(values)
    span = high - low
    if span == 0:
        return _SPARK_LEVELS[1] * len(values)
    chars = []
    for value in values:
        level = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def line_chart(
    series: Dict[str, Sequence[float]],
    height: int = 12,
    width: int = 64,
    title: str = "",
) -> str:
    """Plot one or more series on a shared character canvas.

    Each series gets the first letter of its name as the marker; the
    y-axis is annotated with the min/max, the x-axis spans the longest
    series.
    """
    if not series or all(len(v) == 0 for v in series.values()):
        return title
    longest = max(len(v) for v in series.values())
    all_values = [float(v) for vs in series.values() for v in vs]
    low, high = min(all_values), max(all_values)
    span = high - low or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for name, values in series.items():
        marker = name[0] if name else "?"
        for index, value in enumerate(values):
            x = int(index / max(1, longest - 1) * (width - 1))
            y = int((float(value) - low) / span * (height - 1))
            canvas[height - 1 - y][x] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{high:>10.3g} +" + "-" * width)
    for row in canvas:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{low:>10.3g} +" + "-" * width)
    legend = "   ".join(f"{name[0]}={name}" for name in series)
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def phase_diagram(
    rows: Sequence[Tuple[str, Optional[float], Optional[float], str]],
    low: float,
    high: float,
    width: int = 44,
    title: str = "",
) -> str:
    """Render stable-rate frontiers as one bar per row over a rate axis.

    Each row is ``(label, lower, upper, status)``: the frontier bracket
    found for one campaign cell. ``#`` marks the certified-stable
    region (rates at or below ``lower``), ``?`` the unresolved bracket
    ``(lower, upper]``, ``.`` the unstable region beyond. ``status``
    ``"below-range"`` (unstable already at ``low``) renders all-``.``
    and ``"above-range"`` (still stable at ``high``) all-``#``, each
    annotated with the one-sided bound, so an out-of-range search is
    visible at a glance instead of masquerading as a frontier.
    """
    if width < 2:
        raise ValueError(f"phase diagram width must be >= 2, got {width}")
    if not high > low:
        raise ValueError(
            f"phase diagram axis needs high > low, got [{low}, {high}]"
        )
    label_width = max([len(str(r[0])) for r in rows] or [0])
    label_width = max(label_width, 4)
    span = high - low

    def column(rate: float) -> int:
        fraction = (rate - low) / span
        return int(round(min(1.0, max(0.0, fraction)) * (width - 1)))

    lines: List[str] = []
    if title:
        lines.append(title)
    left, right = f"{low:.3g}", f"{high:.3g}"
    gap = max(1, width - len(left) - len(right))
    lines.append(" " * (label_width + 2) + left + " " * gap + right)
    lines.append(" " * (label_width + 2) + "+" + "-" * (width - 2) + "+")
    for label, lower, upper, status in rows:
        if status == "below-range":
            bar = "." * width
            note = f"< {low:.3g}"
        elif status == "above-range":
            bar = "#" * width
            note = f"> {high:.3g}"
        else:
            lo_col = column(lower if lower is not None else low)
            hi_col = column(upper if upper is not None else high)
            cells = []
            for index in range(width):
                if index <= lo_col:
                    cells.append("#")
                elif index <= hi_col:
                    cells.append("?")
                else:
                    cells.append(".")
            bar = "".join(cells)
            midpoint = 0.5 * (lower + upper)
            note = f"{midpoint:.3g} +- {0.5 * (upper - lower):.2g}"
        lines.append(f"{str(label):<{label_width}}  {bar}  {note}")
    lines.append(
        " " * (label_width + 2)
        + "# stable   ? frontier bracket   . unstable"
    )
    return "\n".join(lines)


__all__ = ["sparkline", "line_chart", "phase_diagram"]

"""ASCII figure rendering — the gnuplot substitute.

The paper's artifact plots GFLOPS bar groups and time series with gnuplot;
this module renders the same figures as unicode bar charts suitable for a
terminal or a text report, and drives the full regeneration of every figure
into a results directory (see :mod:`repro.eval.__main__`).
"""

from __future__ import annotations

from typing import List, Sequence

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(value: float, vmax: float, width: int) -> str:
    if vmax <= 0:
        return ""
    cells = value / vmax * width
    full = int(cells)
    frac = int((cells - full) * 8)
    bar = "█" * full
    if frac and full < width:
        bar += _BLOCKS[frac]
    return bar


def bar_chart(
    rows: Sequence[dict],
    x: str,
    series: Sequence[str],
    title: str = "",
    width: int = 40,
    unit: str = "",
) -> str:
    """Render grouped horizontal bars: one group per row, one bar per series.

    This is the shape of the paper's Figures 13, 15 and 17 (GFLOPS bar
    groups per micro-kernel shape / DNN layer).
    """
    if not rows:
        return "(no data)"
    vmax = max(float(row[s]) for row in rows for s in series)
    label_w = max(len(str(row[x])) for row in rows)
    series_w = max(len(s) for s in series)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("")
    for row in rows:
        for i, s in enumerate(series):
            group = str(row[x]) if i == 0 else ""
            value = float(row[s])
            lines.append(
                f"{group:>{label_w}}  {s:<{series_w}} "
                f"{_bar(value, vmax, width):<{width}} {value:7.2f}{unit}"
            )
        lines.append("")
    return "\n".join(lines)


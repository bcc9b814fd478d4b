"""Plain-text rendering of evaluation results.

The paper plots gnuplot figures; we print the same series as aligned ASCII
tables, which is what the benchmark harness captures into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(
    rows: Sequence[dict],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    cols = list(columns) if columns else list(rows[0].keys())
    table = [[_format_cell(row.get(c, "")) for c in cols] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in table)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in table:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def winners(rows: Sequence[dict], series: Sequence[str]) -> List[str]:
    """Per-row winning configuration (highest value) — e.g. which of the
    four GEMM configurations tops each DNN layer."""
    out = []
    for row in rows:
        best = max(series, key=lambda s: row[s])
        out.append(best)
    return out

"""Text-table rendering for experiment results."""

from __future__ import annotations

import math
from typing import List, Sequence


def format_table(rows: Sequence[dict], max_width: int = 120) -> str:
    """Render a list of flat dicts as an aligned text table.

    Columns come from the union of keys in first-seen order; values are
    stringified with ``repr``-free formatting.
    """
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [
        [_cell(row.get(col, "")) for col in columns] for row in rows
    ]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(r[i].ljust(widths[i]) for i in range(len(columns)))
        for r in rendered
    ]
    return "\n".join([header, separator, *body])


def _cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "/".join(_cell(v) for v in value)
    return str(value)


def render_experiment(experiment_id: str, result: dict) -> str:
    """Render one experiment result (claim, table, verdict) as text."""
    lines = [
        f"=== {experiment_id} ===",
        f"claim: {result['claim']}",
        "",
        format_table(result["rows"]),
        "",
        "verdict:",
    ]
    for key, value in result["verdict"].items():
        lines.append(f"  {key}: {_cell(value)}")
    return "\n".join(lines)

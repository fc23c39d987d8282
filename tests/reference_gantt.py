"""Reference Gantt renderer: the group-then-render layout that
``rrsim.gantt.render_gantt`` replaced with a single pass.

It builds (banner, cells) groups first, then lays each group out in rows,
stating the cell padding once in ``_render_row`` and again in the wrap
rule.  The differential test in ``test_gantt.py`` requires the shipped
renderer to produce the same bytes at every width.
"""
from __future__ import annotations


def _groups(trace):
    """Chronological (banner, cells) groups; cells are (label, end) pairs.
    A hole between two slices is an idle gap, one ``--`` cell."""
    groups: list[tuple[str, list[tuple[str, int]]]] = []
    end = trace.slices[0].start
    for item in trace.slices:
        if item.start > end:
            groups.append(("idle", [("--", item.start)]))
        banner = f"cycle {item.cycle}  <- quantum {item.quantum_in_effect} ->"
        if not groups or groups[-1][0] != banner:
            groups.append((banner, []))
        groups[-1][1].append((item.pid, item.end))
        end = item.end
    return groups


def _inner_width(label: str, end: int, row_start: int | None) -> int:
    """Inner width of one cell; the first cell of a row also leaves room
    for the row-start time printed at the left edge of the number line."""
    inner = max(len(label), len(str(end)))
    if row_start is not None:
        inner = max(inner, len(str(row_start)) + len(str(end)) - 2)
    return inner


def _render_row(out: list[str], start: int, cells: list[tuple[str, int]]):
    top = ""
    bottom = str(start)
    for i, (label, end) in enumerate(cells):
        inner = _inner_width(label, end, start if i == 0 else None)
        top += f"| {label:<{inner}} "
        bottom += f"{end:>{len(top) - len(bottom)}}"
    out.append(top + "|")
    out.append(bottom)


def render_gantt(trace, width: int = 80) -> str:
    if not trace.slices:
        return "(empty trace)\n"

    out: list[str] = []
    cursor = trace.slices[0].start

    for banner, cells in _groups(trace):
        out.append(banner)
        row: list[tuple[str, int]] = []
        row_start = cursor
        used = 0
        for label, end in cells:
            cell_width = _inner_width(label, end, None if row else row_start) + 3
            if row and used + cell_width + 1 > width:
                _render_row(out, row_start, row)
                row_start = row[-1][1]
                row = []
                cell_width = _inner_width(label, end, row_start) + 3
                used = 0
            row.append((label, end))
            used += cell_width
            cursor = end
        _render_row(out, row_start, row)  # every group holds at least one cell
    return "\n".join(out) + "\n"

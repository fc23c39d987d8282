"""ASCII Gantt rendering of execution traces.

Each cycle gets a banner with the quantum in effect, followed by rows of
pid cells with cumulative end-time labels underneath, wrapped to the
requested width.  Idle gaps, one before each break after the first,
render as ``--`` cells under an ``idle`` banner.
"""
from __future__ import annotations

from itertools import chain, count, islice, repeat
from operator import sub

from .model import ExecutionTrace

MIN_WIDTH = 40


def render_gantt(trace: ExecutionTrace, width: int = 80) -> str:
    """Render the trace as monospaced text in one pass over its slices.

    A row wraps before any cell that would take it past ``width`` columns,
    so only a row holding a single oversize cell is wider than ``width``.
    """
    if width < MIN_WIDTH:
        raise ValueError(f"width must be >= {MIN_WIDTH}, got {width}")
    if not trace.slices:
        return "(empty trace)\n"

    out: list[str] = []
    banner = top = bottom = ""
    view = trace.slices
    pids, _, ends, *_ = view.columns
    # one banner per cycle, repeated for each of its slices
    banners = view._per_slice(map("cycle {}  <- quantum {} ->".format, count(1), view._quanta))
    # each break's slices, after the idle gap that ends at it (``trace.idles``): one ``--`` cell
    gaps = [(("idle", "--", end),) for end in view._break_start[1:]]
    runs = map(islice, repeat(zip(banners, pids, ends)), map(sub, view._stops(), view._break_at))
    start = view._break_start[0]  # where the next cell begins
    for cell_banner, label, end in chain.from_iterable(map(chain, [(), *gaps], runs)):
        inner = max(len(label), len(str(end)))
        if cell_banner != banner or len(top) + inner + 4 > width:  # "| label " and "|"
            if top:
                out += (top + "|", bottom)
            if cell_banner != banner:
                out.append(cell_banner)
                banner = cell_banner
            # the row's first cell leaves room for its start time at the left edge
            top, bottom = "", str(start)
            inner = max(inner, len(bottom) + len(str(end)) - 2)
        top += f"| {label:<{inner}} "
        bottom += f"{end:>{len(top) - len(bottom)}}"
        start = end
    out += (top + "|", bottom)
    return "\n".join(out) + "\n"

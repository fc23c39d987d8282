"""Reference trace check: ``engine._walk_trace`` as it was when it keyed
each process's arrival, work left, first dispatch and completion by pid in
dicts, kept verbatim but for its cycle and quantum-log rules, which went
when a trace came to store each cycle's quantum once.

It returns the violation messages, plus each pid's completion time and
first dispatch.  The differential check in ``test_engine.py`` requires
``trace_violations`` to return the same messages, in the same order, on
every mutated trace of the seeded sweep.  Nothing under ``src/`` imports
this module.
"""
from __future__ import annotations

from bisect import bisect_left

from rrsim.model import COMPLETED, ExecutionTrace, Workload


def walk_trace(trace: ExecutionTrace, workload: Workload) -> tuple[list[str], dict, dict]:
    """:func:`trace_violations`' messages, plus each pid's completion time and
    first dispatch; the two maps are complete only when there are no messages."""
    problems: list[str] = []
    # each process's arrival and the work it has left, read off its record
    # once: the walk reads plain dicts per slice, not record fields
    arrival_of = {pid: arrival for pid, arrival, _ in workload.processes}
    left = {pid: burst for pid, _, burst in workload.processes}
    completion, first_dispatch = {}, {}
    arrivals = sorted(arrival_of.values())
    finished = 0
    cursor = arrivals[0]
    previous = float("-inf")  # the start of the previous slice
    for pid, start, end, _, quantum, termination in zip(*trace.slices.columns):
        if start < cursor:
            problems.append(f"interval [{start},{end}) overlaps the previous one")
        # an idle gap [cursor, start): finished processes ran before it, so
        # they arrived before its end
        elif start > cursor and bisect_left(arrivals, start) != finished:
            problems.extend(f"idle gap [{cursor},{start}) while {pid} is runnable"
                            for pid, arrival in arrival_of.items()
                            if arrival < start and left[pid] > 0)
        if end > cursor:
            cursor = end
        if start < previous:
            problems.append(f"slice {pid} [{start},{end}) listed out of time order")
        previous = start
        arrival = arrival_of.get(pid)
        if arrival is None:
            problems.append(f"slice for unknown pid {pid!r}")
            continue
        run = end - start
        if run <= 0:
            problems.append(f"empty or reversed slice {pid} [{start},{end})")
        if run > quantum:
            problems.append(f"slice {pid} [{start},{end}) exceeds quantum {quantum}")
        if start < arrival:
            problems.append(f"slice {pid} starts at {start} before arrival {arrival}")
        rest = left[pid] = left[pid] - run
        if pid not in first_dispatch:
            first_dispatch[pid] = start
        done = rest <= 0
        if done != (termination == COMPLETED):
            problems.append(f"last slice of {pid} not marked completed" if done
                            else f"non-final slice of {pid} marked completed")
        if done and rest + run > 0:  # this slice used up the last of the burst
            finished += 1
            completion[pid] = end

    problems.extend(f"pid {pid}: executed {burst - left[pid]} ms, burst is {burst} ms"
                    for pid, _, burst in workload.processes if left[pid])
    return problems, completion, first_dispatch

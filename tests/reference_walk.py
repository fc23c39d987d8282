"""Reference trace check: ``engine._walk_trace`` as it was when it keyed
each process's arrival, work left, first dispatch and completion by pid in
dicts, kept verbatim.

It returns the violation messages, plus each pid's completion time and
first dispatch.  The differential check in ``test_engine.py`` requires
``trace_violations`` to return the same messages, in the same order, on
every mutated trace of the seeded sweep.  Nothing under ``src/`` imports
this module.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import pairwise
from operator import itemgetter

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
    log = trace.quantum_log
    last_cycle = logged = None  # the previous slice's cycle and its logged quantum
    for pid, start, end, cycle, quantum, termination in zip(*trace.slices.columns):
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
        if cycle != last_cycle:
            expected = 1 if last_cycle is None else last_cycle + 1
            if cycle != expected:
                problems.append(f"slice {pid} [{start},{end}) in cycle {cycle}, "
                                f"not cycle {expected}")
            last_cycle = cycle
            at = bisect_right(log, cycle, key=itemgetter(0))
            logged = log[at - 1][1] if at else None
        if quantum != logged:
            problems.append(f"slice {pid} [{start},{end}) has quantum {quantum}, "
                            f"but cycle {cycle}'s logged quantum is {logged}")
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
    if not log:
        problems.append("empty quantum log")
    problems.extend(f"quantum log lists cycle {b} after cycle {a}"
                    for (a, _), (b, _) in pairwise(log) if b <= a)
    ran = last_cycle or 0
    problems.extend(f"quantum log names cycle {cyc}, but the slices ran cycles 1..{ran}"
                    for cyc, _ in log if not 1 <= cyc <= ran)
    problems.extend(f"cycle {cyc} logged quantum {q} < 1" for cyc, q in log if q < 1)

    return problems, completion, first_dispatch

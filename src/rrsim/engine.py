"""Deterministic execution kernel for quantum-based scheduling policies.

Every policy runs on one cycle loop over one queue of records, one
record per queued process; a slice that preempts a process replaces its
record.  At each cycle start the policy receives a snapshot of that queue
and answers with a quantum for the whole cycle and a dispatch order made
of the snapshot's own records.  Completed processes leave; survivors keep
the order in which they ran, so an ``ascending`` policy's queue stays
sorted by :data:`rank_key` (each lost the same quantum) as newcomers are
inserted in place.  ``arrival_mode`` decides when arrivals join the queue:

* ``cycle_boundary``: new processes are appended once the cycle has
  finished.
* ``slice_boundary_restart``: the arrival check runs after every slice,
  and any new admission abandons the rest of the cycle so that a fresh
  one is planned over all unfinished processes.
* ``tail_rejoin`` (classic round robin): after every slice the new
  processes join the next cycle's queue, in arrival order, before the
  preempted process rejoins.  A cycle is thus one pass over a single
  FIFO queue.

The engine is a pure function of its inputs; simulating the same workload
twice yields identical traces.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import count, pairwise, repeat
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Sequence

from .model import (
    COMPLETED,
    QUANTUM_EXPIRED,
    ExecutionTrace,
    PolicyDescriptor,
    SliceView,
    Workload,
    record_builder,
)

CYCLE_BOUNDARY = "cycle_boundary"
SLICE_BOUNDARY_RESTART = "slice_boundary_restart"
TAIL_REJOIN = "tail_rejoin"
ARRIVAL_MODES = (CYCLE_BOUNDARY, SLICE_BOUNDARY_RESTART, TAIL_REJOIN)
rank_key = attrgetter("remaining", "arrival", "submission_index")  # a total order


class PolicyPlanInvalid(ValueError):
    """The policy returned a defective plan (bad order or quantum)."""


class SnapshotEntry(NamedTuple):
    pid: str
    remaining: int
    arrival: int
    submission_index: int
    dispatched_before: bool


class ReadySnapshot(NamedTuple):
    """State of the ready queue handed to a policy at cycle start.

    ``entries`` is the engine's queue itself, one record per queued
    process, in queue order: sorted by :data:`rank_key` for an
    ``ascending`` policy, else as the ``arrival_mode`` leaves it.
    """

    entries: tuple[SnapshotEntry, ...]
    now: int
    cycle_index: int


# records the engine builds in C: neither type checks its fields
_entry = record_builder(SnapshotEntry)
_snapshot = record_builder(ReadySnapshot)


class CyclePlan(NamedTuple):
    """A dispatch order plus the cycle quantum.  The order is a tuple or
    list of the snapshot's own records, each exactly once.  A copied or
    edited record is rejected, since the engine runs each record's
    ``remaining`` as it finds it.  ``plan`` may return any other
    ``(order, quantum)`` pair in its place."""

    order: Sequence[SnapshotEntry]
    quantum: int


@dataclass(frozen=True)
class PolicyBehavior:
    """The policy contract consumed by :func:`simulate`.

    ``plan`` must be pure and deterministic: the same snapshot always
    yields the same plan.  An ``ascending`` policy gets a sorted snapshot
    and must return its ``entries`` unchanged as the order.
    """

    descriptor: PolicyDescriptor
    plan: Callable[[ReadySnapshot], CyclePlan]
    arrival_mode: str = CYCLE_BOUNDARY
    ascending: bool = False


def _pids(records) -> tuple:
    return tuple(getattr(r, "pid", r) for r in records)


def _invalid(policy: PolicyBehavior, problem: str) -> PolicyPlanInvalid:
    return PolicyPlanInvalid(f"{policy.descriptor.name}: {problem}")


def _checked_plan(policy: PolicyBehavior, snapshot: ReadySnapshot) -> tuple[Sequence, int]:
    plan = policy.plan(snapshot)
    try:
        order, quantum = plan  # a CyclePlan or any other pair
    except (TypeError, ValueError):
        raise _invalid(policy, f"plan is a {type(plan).__name__}, "
                               f"not an (order, quantum) pair") from None
    entries = snapshot.entries
    if order is not entries:
        if not isinstance(order, (tuple, list)):
            raise _invalid(policy, f"plan order is a {type(order).__name__}, "
                                   f"not a tuple or list")
        # the queue's records are distinct objects, so equal lengths and
        # equal identity sets make a permutation of those very records
        if (policy.ascending or len(order) != len(entries)
                or set(map(id, order)) != set(map(id, entries))):
            kind = "the ascending queue" if policy.ascending else "a permutation of the ready queue"
            raise _invalid(policy, f"plan order {_pids(order)} is not {kind}'s records "
                                   f"{_pids(entries)}")
    if type(quantum) is not int:  # a float or a bool would run, then fail in the metrics
        raise _invalid(policy, f"quantum {quantum!r} is not an int")
    if quantum < 1:
        raise _invalid(policy, f"quantum {quantum} < 1")
    return order, quantum


def simulate(workload: Workload, policy: PolicyBehavior) -> ExecutionTrace:
    """Run ``policy`` over ``workload`` and return the full trace.

    The clock starts at the earliest arrival.  A process is admitted once
    the clock has reached its arrival time; whenever no admitted process
    has remaining work but some are still pending, the clock jumps to the
    next arrival, which leaves an idle gap between two slices.
    Context-switch overhead is zero.
    """
    mode = policy.arrival_mode
    if mode not in ARRIVAL_MODES:
        raise ValueError(f"unknown arrival mode {mode!r}")
    if policy.ascending and mode == TAIL_REJOIN:  # newcomers join ahead of the preempted one
        raise ValueError(f"arrival mode {mode!r} cannot keep the queue ascending")
    place = (lambda q, e: insort(q, e, key=rank_key)) if policy.ascending else list.append
    pid_col, arrival_col, burst_col = zip(*workload.processes)
    # sorted() is stable, so equal arrivals keep their submission order
    incoming = sorted(map(_entry, zip(pid_col, burst_col, arrival_col, count(), repeat(False))),
                      key=attrgetter("arrival"))
    never = incoming[-1].arrival + sum(burst_col) + 1  # beyond every slice's end

    queue: list[SnapshotEntry] = []
    # the trace's columns: a slice is one entry in each, never a record
    pids, starts, ends, cycles, quanta, terminations = [], [], [], [], [], []
    quantum_log: list[tuple[int, int]] = []
    clock = incoming[0].arrival
    cycle = 0
    ptr = 0

    def admit(upto: int) -> int:  # enqueue arrivals up to ``upto``; return the next one's time
        nonlocal ptr
        while ptr < len(incoming) and incoming[ptr].arrival <= upto:
            place(queue, incoming[ptr])
            ptr += 1
        return incoming[ptr].arrival if ptr < len(incoming) else never

    due = admit(clock)
    while queue or due != never:
        if not queue:
            clock = due
            due = admit(clock)
            continue

        cycle += 1
        snapshot = _snapshot((tuple(queue), clock, cycle))
        order, quantum = _checked_plan(policy, snapshot)
        # A tail-rejoin cycle is one pass over a FIFO queue, not a quantum
        # decision, so only a change of quantum is logged: classic round
        # robin reports its one constant quantum, ((1, q),).
        if mode != TAIL_REJOIN or not quantum_log or quantum_log[-1][1] != quantum:
            quantum_log.append((cycle, quantum))

        queue = []  # the next cycle's queue, filled in execution order
        watch = due if mode != CYCLE_BOUNDARY else never  # an arrival that acts mid-cycle
        dispatch = iter(order)
        for pid, remaining, arrival, index, _ in dispatch:
            left = remaining - quantum
            pids.append(pid)
            starts.append(clock)
            clock += quantum if left > 0 else remaining
            ends.append(clock)
            terminations.append(QUANTUM_EXPIRED if left > 0 else COMPLETED)
            if clock >= watch and mode == TAIL_REJOIN:
                watch = due = admit(clock)  # same-ms arrivals enqueue before the preempted one
            if left > 0:
                queue.append(_entry((pid, left, arrival, index, True)))
            if clock >= watch:  # slice-boundary restart: abandon the cycle, replan over all
                queue.extend(dispatch)  # the records not yet dispatched
                break
        ran = len(pids) - len(cycles)  # every slice of a cycle shares its index and quantum
        cycles += [cycle] * ran
        quanta += [quantum] * ran
        due = admit(clock)

    return ExecutionTrace(
        algorithm=policy.descriptor,
        slices=SliceView(pids, starts, ends, cycles, quanta, terminations),
        quantum_log=tuple(quantum_log),
    )


def trace_violations(trace: ExecutionTrace, workload: Workload) -> list[str]:
    """All ExecutionTrace invariants violated by ``trace``, as messages.

    One walk over ``trace.slices`` checks the tiling and each slice against
    its process's remaining work.  A hole before a slice is an idle gap,
    and every process that arrived before its end must already be
    finished.  The slices must be in time order, as ``simulate`` writes
    them: the walk does not sort them.  Their cycles count up from 1 by 0
    or 1 per slice, and each slice runs at the quantum of the latest
    ``quantum_log`` entry at or before its cycle.  The log's cycles strictly
    increase and each names a cycle that some slice ran.
    """
    return _walk_trace(trace, workload)[0]


def _walk_trace(trace: ExecutionTrace, workload: Workload) -> tuple[list[str], dict, dict]:
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

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
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Sequence

from .model import (
    COMPLETED,
    QUANTUM_EXPIRED,
    ExecutionTrace,
    PolicyDescriptor,
    Slice,
    Workload,
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


@dataclass(frozen=True)
class ReadySnapshot:
    """State of the ready queue handed to a policy at cycle start.

    ``entries`` is the engine's queue itself, one record per queued
    process, in queue order: sorted by :data:`rank_key` for an
    ``ascending`` policy, else as the ``arrival_mode`` leaves it.
    """

    entries: tuple[SnapshotEntry, ...]
    now: int
    cycle_index: int


@dataclass(frozen=True)
class CyclePlan:
    """The cycle quantum plus a dispatch order: the snapshot's own records,
    each exactly once.  A copied or edited record is rejected, since the
    engine runs each record's ``remaining`` as it finds it."""

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


def _checked_plan(policy: PolicyBehavior, snapshot: ReadySnapshot) -> CyclePlan:
    plan = policy.plan(snapshot)
    order, entries = plan.order, snapshot.entries
    # the queue's records are distinct objects, so equal lengths and equal
    # identity sets make a permutation of those very records
    if order is not entries and (policy.ascending or len(order) != len(entries)
                                 or set(map(id, order)) != set(map(id, entries))):
        kind = "the ascending queue" if policy.ascending else "a permutation of the ready queue"
        raise PolicyPlanInvalid(
            f"{policy.descriptor.name}: plan order {_pids(order)} is not {kind}'s records "
            f"{_pids(entries)}")
    if plan.quantum < 1:
        raise PolicyPlanInvalid(
            f"{policy.descriptor.name}: quantum {plan.quantum} < 1")
    return plan


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
    # sorted() is stable, so equal arrivals keep their submission order
    incoming = sorted((SnapshotEntry(p.pid, p.burst, p.arrival, i, False)
                       for i, p in enumerate(workload.processes)), key=attrgetter("arrival"))
    never = incoming[-1].arrival + workload.total_burst() + 1  # beyond every slice's end

    queue: list[SnapshotEntry] = []
    slices: list[Slice] = []
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
        snapshot = ReadySnapshot(tuple(queue), clock, cycle)
        plan = _checked_plan(policy, snapshot)
        order, quantum = plan.order, plan.quantum
        # A tail-rejoin cycle is one pass over a FIFO queue, not a quantum
        # decision, so only a change of quantum is logged: classic round
        # robin reports its one constant quantum, ((1, q),).
        if mode != TAIL_REJOIN or not quantum_log or quantum_log[-1][1] != quantum:
            quantum_log.append((cycle, quantum))

        queue = []  # the next cycle's queue, filled in execution order
        watch = due if mode != CYCLE_BOUNDARY else never  # an arrival that acts mid-cycle
        for pos, (pid, remaining, arrival, index, _) in enumerate(order):
            left = remaining - quantum
            run = quantum if left > 0 else remaining
            slices.append(Slice(pid, clock, clock + run, cycle, quantum,
                                QUANTUM_EXPIRED if left > 0 else COMPLETED))
            clock += run
            if clock >= watch and mode == TAIL_REJOIN:
                watch = due = admit(clock)  # same-ms arrivals enqueue before the preempted one
            if left > 0:
                queue.append(SnapshotEntry(pid, left, arrival, index, True))
            if clock >= watch:  # slice-boundary restart: abandon the cycle, replan over all
                queue.extend(order[pos + 1:])
                break
        due = admit(clock)

    return ExecutionTrace(
        algorithm=policy.descriptor,
        slices=tuple(slices),
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
    ``quantum_log`` entry at or before its cycle.
    """
    return _walk_trace(trace, workload)[0]


def _walk_trace(trace: ExecutionTrace, workload: Workload) -> tuple[list[str], dict, dict]:
    """:func:`trace_violations`' messages, plus each pid's completion time and
    first dispatch; the two maps are complete only when there are no messages."""
    problems: list[str] = []
    specs = workload.by_pid()
    left = {pid: spec.burst for pid, spec in specs.items()}
    completion, first_dispatch = {}, {}
    arrivals = sorted(spec.arrival for spec in specs.values())
    finished = 0
    cursor = arrivals[0]
    previous = float("-inf")  # the start of the previous slice
    log = trace.quantum_log
    last_cycle = logged = None  # the previous slice's cycle and its logged quantum
    for pid, start, end, cycle, quantum, termination in trace.slices:
        if start < cursor:
            problems.append(f"interval [{start},{end}) overlaps the previous one")
        # an idle gap [cursor, start): finished processes ran before it, so
        # they arrived before its end
        elif start > cursor and bisect_left(arrivals, start) != finished:
            problems.extend(f"idle gap [{cursor},{start}) while {pid} is runnable"
                            for pid, spec in specs.items()
                            if spec.arrival < start and left[pid] > 0)
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
        spec = specs.get(pid)
        if spec is None:
            problems.append(f"slice for unknown pid {pid!r}")
            continue
        run = end - start
        if run <= 0:
            problems.append(f"empty or reversed slice {pid} [{start},{end})")
        if run > quantum:
            problems.append(f"slice {pid} [{start},{end}) exceeds quantum {quantum}")
        if start < spec.arrival:
            problems.append(f"slice {pid} starts at {start} before arrival {spec.arrival}")
        rest = left[pid] = left[pid] - run
        if rest + run == spec.burst:
            first_dispatch[pid] = start
        done = rest <= 0
        if done != (termination == COMPLETED):
            problems.append(f"last slice of {pid} not marked completed" if done
                            else f"non-final slice of {pid} marked completed")
        if done and rest + run > 0:  # this slice used up the last of the burst
            finished += 1
            completion[pid] = end

    problems.extend(f"pid {pid}: executed {specs[pid].burst - rest} ms, "
                    f"burst is {specs[pid].burst} ms" for pid, rest in left.items() if rest)
    if not trace.quantum_log:
        problems.append("empty quantum log")
    problems.extend(f"cycle {cyc} logged quantum {q} < 1"
                    for cyc, q in trace.quantum_log if q < 1)

    return problems, completion, first_dispatch

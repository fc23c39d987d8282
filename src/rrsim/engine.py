"""Deterministic execution kernel for quantum-based scheduling policies.

Every policy runs on one cycle loop over one ready queue, stored as two
columns: each queued process's submission index and its remaining work.
A process's pid, arrival and burst are read from the workload by that
index, and it has been dispatched before exactly when its remaining work
is below its burst, since every slice runs at least 1 ms.  A slice that
preempts a process appends its index and remaining work to the next
cycle's columns; the loop builds no record.

At each cycle start the policy receives a snapshot whose ``entries`` is a
read-only view of the queue (:class:`ReadyQueue`), and answers with a
quantum for the whole cycle and a dispatch order.  A policy reads its
quantum inputs from ``entries.remaining``.  Indexing or iterating the view
builds one :class:`SnapshotEntry` per queued process, once, and keeps
them, so an order made of records is made of the snapshot's own records.
An order that is ``entries`` itself is dispatched straight from the
columns; a reordered one is mapped back to them.  Completed processes
leave; survivors keep the order in which they ran, so an ``ascending``
policy's queue stays sorted by :data:`rank_key` (each lost the same
quantum) as newcomers are inserted in place.  ``arrival_mode`` decides
when arrivals join the queue:

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

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, NamedTuple

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
# A total order.  The engine inserts a newcomer into an ascending queue at
# ``bisect_right`` on remaining work alone, which ranks it exactly as this key
# does: every queued process was admitted before it, in (arrival, submission
# index) order, so on a tie of remaining work each one ranks ahead of it.
rank_key = attrgetter("remaining", "arrival", "submission_index")


class PolicyPlanInvalid(ValueError):
    """The policy returned a defective plan (bad order or quantum)."""


class SnapshotEntry(NamedTuple):
    pid: str
    remaining: int
    arrival: int
    submission_index: int
    dispatched_before: bool


class ReadyQueue(Sequence):
    """A read-only sequence of :class:`SnapshotEntry`: the ready queue, in
    queue order, stored as two columns.

    ``remaining`` is the list of the queue's remaining work, and the one
    way a policy reads its quantum inputs; it is shared with the engine, so
    never change it.  ``dispatched_before`` is a new list of that field of
    every entry.  Neither builds a record.  Indexing or iterating the view
    builds its records on first use and keeps them, so it always hands out
    the same objects; a slice of it (``view[a:b]``) is a ``tuple`` of them.
    It compares equal to the tuple of its records.
    """

    __slots__ = ("_index", "_remaining", "_columns", "_records")

    def __init__(self, index: Sequence[int], remaining: Sequence[int],
                 columns: tuple[Sequence, Sequence, Sequence], records=None):
        self._index = index          # each entry's key into the columns
        self._remaining = remaining
        self._columns = columns      # pid, arrival and burst, by key
        self._records = records

    @property
    def remaining(self) -> list[int]:
        return self._remaining

    @property
    def dispatched_before(self) -> list[bool]:
        burst = self._columns[2]
        return [left < burst[k] for k, left in zip(self._index, self._remaining)]

    def _entries(self) -> tuple[SnapshotEntry, ...]:
        if self._records is None:
            pid, arrival, burst = self._columns
            records = []
            for k, left in zip(self._index, self._remaining):
                records.append(_entry((pid[k], left, arrival[k], k, left < burst[k])))
            self._records = tuple(records)
        return self._records

    def __len__(self) -> int:
        return len(self._remaining)

    def __getitem__(self, index):
        return self._entries()[index]

    def __iter__(self):
        return iter(self._entries())

    def __add__(self, other):
        return self._entries() + other

    def __eq__(self, other):
        if isinstance(other, ReadyQueue):
            other = other._entries()
        return self._entries() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._entries())  # equal to the tuple it equals

    def __repr__(self) -> str:
        return f"ReadyQueue({self._entries()!r})"


class ReadySnapshot(NamedTuple):
    """State of the ready queue handed to a policy at cycle start.

    ``entries`` is a :class:`ReadyQueue` view of the engine's queue, in
    queue order: sorted by :data:`rank_key` for an ``ascending`` policy,
    else as the ``arrival_mode`` leaves it.  Build one by hand with
    :meth:`of`.
    """

    entries: ReadyQueue
    now: int
    cycle_index: int

    @classmethod
    def of(cls, entries: Iterable[SnapshotEntry], now: int, cycle_index: int) -> "ReadySnapshot":
        """A snapshot of ``entries``, in their order; its view hands out those
        very records."""
        records = tuple(entries)
        remaining = [r.remaining for r in records]
        # keyed by position; a burst above ``remaining`` marks a record that has run
        columns = ([r.pid for r in records], [r.arrival for r in records],
                   [r.remaining + r.dispatched_before for r in records])
        return cls(ReadyQueue(range(len(records)), remaining, columns, records), now, cycle_index)


# records the engine builds in C: neither type checks its fields
_entry = record_builder(SnapshotEntry)
_snapshot = record_builder(ReadySnapshot)


class CyclePlan(NamedTuple):
    """A dispatch order plus the cycle quantum.  The order is the snapshot's
    ``entries`` or a tuple or list of its records, each exactly once.  A
    copied or edited record is rejected, since the engine runs each
    record's ``remaining`` as it finds it.  ``plan`` may return any other
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


_index_of, _remaining_of = itemgetter(3), itemgetter(1)  # a record's two dispatched fields


def _checked_plan(policy: PolicyBehavior,
                  snapshot: ReadySnapshot) -> tuple[Sequence[int], Sequence[int], int]:
    """The policy's plan for ``snapshot``, checked: its order as the index and
    remaining columns of the queue it dispatches, and its quantum."""
    plan = policy.plan(snapshot)
    try:
        order, quantum = plan  # a CyclePlan or any other pair
    except (TypeError, ValueError):
        raise _invalid(policy, f"plan is a {type(plan).__name__}, "
                               f"not an (order, quantum) pair") from None
    entries = snapshot.entries
    if order is entries:
        index, remaining = entries._index, entries._remaining
    else:
        if not isinstance(order, (tuple, list)):
            raise _invalid(policy, f"plan order is a {type(order).__name__}, "
                                   f"not a tuple or list")
        # the queue's records are distinct objects, so an order of equal
        # length that holds each of them is a permutation of those very records
        records = entries._entries()
        if (policy.ascending or len(order) != len(records)
                or not set(map(id, order)).issuperset(map(id, records))):
            kind = "the ascending queue" if policy.ascending else "a permutation of the ready queue"
            raise _invalid(policy, f"plan order {_pids(order)} is not {kind}'s records "
                                   f"{_pids(records)}")
        index, remaining = list(map(_index_of, order)), list(map(_remaining_of, order))
    if type(quantum) is not int:  # a float or a bool would run, then fail in the metrics
        raise _invalid(policy, f"quantum {quantum!r} is not an int")
    if quantum < 1:
        raise _invalid(policy, f"quantum {quantum} < 1")
    return index, remaining, quantum


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
    ascending = policy.ascending
    if ascending and mode == TAIL_REJOIN:  # newcomers join ahead of the preempted one
        raise ValueError(f"arrival mode {mode!r} cannot keep the queue ascending")
    columns = pid_col, arrival_col, burst_col = tuple(zip(*workload.processes))
    # sorted() is stable, so equal arrivals keep their submission order
    incoming = sorted(range(len(arrival_col)), key=arrival_col.__getitem__)
    bursts = [burst_col[k] for k in incoming]  # in admission order, like ``arrivals``
    arrivals = [arrival_col[k] for k in incoming]
    never = arrivals[-1] + sum(burst_col) + 1  # beyond every slice's end
    arrivals.append(never)  # so the next arrival after the last one is ``never``

    index: list[int] = []       # the queue: each process's submission index
    remaining: list[int] = []   # and its remaining work
    # the trace's columns: a slice is one entry in each, never a record
    pids, starts, ends, cycles, quanta, terminations = [], [], [], [], [], []
    quantum_log: list[tuple[int, int]] = []
    clock = arrivals[0]
    cycle = 0
    ptr = 0

    def admit(upto: int) -> int:  # enqueue arrivals up to ``upto``; return the next one's time
        nonlocal ptr
        while arrivals[ptr] <= upto:
            k, burst = incoming[ptr], bursts[ptr]
            if ascending:
                at = bisect_right(remaining, burst)  # ranks as rank_key does
                index.insert(at, k)
                remaining.insert(at, burst)
            else:
                index.append(k)
                remaining.append(burst)
            ptr += 1
        return arrivals[ptr]

    due = admit(clock)
    while index or due != never:
        if not index:
            clock = due
            due = admit(clock)
            continue

        cycle += 1
        snapshot = _snapshot((ReadyQueue(index, remaining, columns), clock, cycle))
        run_index, run_remaining, quantum = _checked_plan(policy, snapshot)
        # A tail-rejoin cycle is one pass over a FIFO queue, not a quantum
        # decision, so only a change of quantum is logged: classic round
        # robin reports its one constant quantum, ((1, q),).
        if mode != TAIL_REJOIN or not quantum_log or quantum_log[-1][1] != quantum:
            quantum_log.append((cycle, quantum))

        index, remaining = [], []  # the next cycle's queue, filled in execution order
        watch = due if mode != CYCLE_BOUNDARY else never  # an arrival that acts mid-cycle
        for k, work in zip(run_index, run_remaining):
            left = work - quantum
            pids.append(pid_col[k])
            starts.append(clock)
            clock += quantum if left > 0 else work
            ends.append(clock)
            terminations.append(QUANTUM_EXPIRED if left > 0 else COMPLETED)
            if clock >= watch and mode == TAIL_REJOIN:
                watch = due = admit(clock)  # same-ms arrivals enqueue before the preempted one
            if left > 0:
                index.append(k)
                remaining.append(left)
            if clock >= watch:  # slice-boundary restart: abandon the cycle, replan over all
                ran = len(pids) - len(cycles)
                index += run_index[ran:]  # the processes not yet dispatched
                remaining += run_remaining[ran:]
                break
        ran = len(pids) - len(cycles)  # every slice of a cycle shares its index and quantum
        cycles += [cycle] * ran
        quanta += [quantum] * ran
        if clock >= due:
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

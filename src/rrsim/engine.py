"""Deterministic execution kernel for quantum-based scheduling policies.

Every policy runs on one cycle loop over one ready queue, stored as two
columns: each queued process's submission index and its remaining work.
The trace stores each cycle's quantum once, and each slice as its
process's submission index, an object the engine already holds, plus one
byte for its termination.  A slice that preempts its process ran the
cycle's quantum, so only a slice that completes its process stores its
run, the work that process had left.  Start and end times are derived
from the runs and from one break per idle gap.
At each cycle start the policy gets a snapshot whose ``entries`` is a
read-only :class:`ReadyQueue` view of the columns, and answers with a
plain ``(order, quantum)`` pair: a quantum for the whole cycle and an
order, ``entries`` itself or the queue positions ``0..n-1`` in dispatch
order.  Completed processes leave; survivors keep the order in which
they ran, so an ``ascending`` policy's queue stays in :func:`rank_order`
(each lost the same quantum) as newcomers are inserted in place.
``arrival_mode`` decides when arrivals join the queue:

* ``cycle_boundary``: new processes are appended once the cycle has
  finished.
* ``slice_boundary_restart``: the arrival check runs after every slice,
  and any new admission abandons the rest of the cycle so that a fresh
  one is planned over all unfinished processes.
* ``tail_rejoin`` (classic round robin): after every slice the new
  processes join the next cycle's queue, in arrival order, before the
  preempted process rejoins.  A cycle is thus one pass over a single
  FIFO queue.

A plan whose order is the snapshot's ``entries`` itself, as a plain tuple
with an ``int`` quantum of at least 1, is accepted inline; any other goes
to the full check, which raises :class:`PolicyPlanInvalid`.  A cycle is
dispatched in one of three ways, which give the same slices:

* as one slice, when the queue holds one process: whatever arrives during
  it can only join the next cycle's queue, under ``tail_rejoin`` ahead of
  the process if the slice preempts it;
* in bulk, when the policy is ``ascending``, no arrival can act before the
  cycle ends (``cycle_boundary``, or ``slice_boundary_restart`` once every
  process has arrived) and the queue holds at least :data:`BULK_QUEUE_MIN`
  processes.  The processes the cycle finishes, those with no more work
  than its quantum, are then a prefix of the queue, so its slices and the
  next queue are built by list operations that run in C;
* slice by slice otherwise: each slice that preempts a process appends
  it to the next cycle's columns, and the loop builds no record.

The engine is a pure function of its inputs; simulating the same workload
twice yields identical traces.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import lt, ne, sub
from typing import Callable, Iterable, NamedTuple

from .model import (
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

# The shortest queue whose cycle is dispatched in bulk: below it, setting up
# the list operations costs more than the per-slice loop (measured break-even).
BULK_QUEUE_MIN = 12


class PolicyPlanInvalid(ValueError):
    """The policy returned a defective plan (bad order or quantum)."""


class ReadyQueue:
    """The ready queue, in queue order, as columns with one value per process.

    ``remaining`` (work left) and ``submission_index`` (the process's place
    in its workload) are the engine's own lists: read them, never change
    them.  ``pid``, ``arrival`` and ``dispatched_before`` build a new list on
    each read: a process has run exactly when its remaining work is below
    its burst, since every slice runs at least 1 ms.
    """

    __slots__ = ("submission_index", "remaining", "_columns")

    def __init__(self, submission_index: list[int], remaining: list[int],
                 columns: tuple[Sequence, Sequence, Sequence]):
        self.submission_index = submission_index
        self.remaining = remaining
        self._columns = columns  # pid, arrival and burst, by submission index

    def __len__(self) -> int:
        return len(self.remaining)

    @property
    def pid(self) -> list[str]:
        return list(map(self._columns[0].__getitem__, self.submission_index))

    @property
    def arrival(self) -> list[int]:
        return list(map(self._columns[1].__getitem__, self.submission_index))

    @property
    def dispatched_before(self) -> list[bool]:
        burst = map(self._columns[2].__getitem__, self.submission_index)
        return list(map(lt, self.remaining, burst))


def rank_order(entries: ReadyQueue) -> list[int]:
    """The queue positions of ``entries`` ranked by remaining work, then
    arrival, then submission index: a total order.

    The engine inserts a newcomer into an ascending queue at
    ``bisect_right`` on remaining work alone, which ranks it exactly as
    this order does: every queued process was admitted before it, in
    (arrival, submission index) order, so on a tie of remaining work each
    one ranks ahead of it.
    """
    keys = list(zip(entries.remaining, entries.arrival, entries.submission_index))
    return sorted(range(len(keys)), key=keys.__getitem__)


class ReadySnapshot(NamedTuple):
    """State of the ready queue handed to a policy at cycle start.

    ``entries`` is a :class:`ReadyQueue` view of the engine's queue: sorted
    by :func:`rank_order` for an ``ascending`` policy, else as the
    ``arrival_mode`` leaves it.  Build one by hand with :meth:`of`.
    """

    entries: ReadyQueue
    now: int
    cycle_index: int

    @classmethod
    def of(cls, pid: Iterable[str], remaining: Iterable[int], arrival: Iterable[int],
           burst: Iterable[int], now: int, cycle_index: int) -> "ReadySnapshot":
        """A snapshot of a queue given as columns, in queue order; each
        process's submission index is its position, and its
        ``dispatched_before`` is ``remaining < burst``."""
        pid, remaining, arrival, burst = columns = tuple(
            map(list, (pid, remaining, arrival, burst)))
        if len(set(map(len, columns))) != 1:
            raise ValueError(f"columns of unequal length {tuple(map(len, columns))}")
        return cls(ReadyQueue(list(range(len(pid))), remaining, (pid, arrival, burst)),
                   now, cycle_index)


_snapshot = record_builder(ReadySnapshot)  # built in C: checks no field
_new = object.__new__
_INF = float("inf")


@dataclass(frozen=True)
class PolicyBehavior:
    """The policy contract consumed by :func:`simulate`.

    ``plan`` returns an ``(order, quantum)`` pair whose order is the
    snapshot's ``entries`` or a tuple or list of its queue positions, each
    once.  It must be pure and deterministic: the same snapshot always
    yields the same plan.  An ``ascending`` policy gets a sorted snapshot
    and must return its ``entries`` unchanged as the order.
    """

    descriptor: PolicyDescriptor
    plan: Callable[[ReadySnapshot], tuple[ReadyQueue | Sequence[int], int]]
    arrival_mode: str = CYCLE_BOUNDARY
    ascending: bool = False


def _invalid(policy: PolicyBehavior, problem: str) -> PolicyPlanInvalid:
    return PolicyPlanInvalid(f"{policy.descriptor.name}: {problem}")


def _checked_plan(policy: PolicyBehavior,
                  snapshot: ReadySnapshot) -> tuple[list[int], list[int], int]:
    """The policy's plan for ``snapshot``, checked: its order as the index and
    remaining columns of the queue it dispatches, and its quantum."""
    return _check_plan(policy, snapshot, policy.plan(snapshot))


def _check_plan(policy: PolicyBehavior, snapshot: ReadySnapshot,
                plan) -> tuple[list[int], list[int], int]:
    """:func:`_checked_plan` for the ``plan`` that the policy has returned."""
    try:
        order, quantum = plan
    except (TypeError, ValueError):
        raise _invalid(policy, f"plan is a {type(plan).__name__}, "
                               f"not an (order, quantum) pair") from None
    entries = snapshot.entries
    index, remaining = entries.submission_index, entries.remaining
    if order is not entries:
        if not isinstance(order, (tuple, list)):
            raise _invalid(policy, f"plan order is a {type(order).__name__}, "
                                   f"not a tuple or list")
        n = len(remaining)
        # ints only, before the set test: True and 1.0 equal and index like
        # 1, and an unhashable position would make set() raise
        if (policy.ascending or len(order) != n or set(map(type, order)) != {int}
                or set(order) != set(range(n))):
            kind = "the ascending queue's entries" if policy.ascending \
                else f"a permutation of the queue positions 0..{n - 1}"
            raise _invalid(policy, f"plan order {order!r} is not {kind}")
        index = list(map(index.__getitem__, order))
        remaining = list(map(remaining.__getitem__, order))
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
    ascending, plan, tail_rejoin = policy.ascending, policy.plan, mode == TAIL_REJOIN
    if ascending and tail_rejoin:  # newcomers join ahead of the preempted one
        raise ValueError(f"arrival mode {mode!r} cannot keep the queue ascending")
    columns = pid_col, arrival_col, burst_col = workload.columns
    # sorted() is stable, so equal arrivals keep their submission order
    incoming = sorted(range(len(arrival_col)), key=arrival_col.__getitem__)
    bursts = [burst_col[k] for k in incoming]  # in admission order, like ``arrivals``
    arrivals = [arrival_col[k] for k in incoming]
    never = arrivals[-1] + sum(burst_col) + 1  # beyond every slice's end
    arrivals.append(never)  # so the next arrival after the last one is ``never``

    # the trace's columns: one entry per slice in two (its process's
    # submission index, and its termination as a byte, 1 when the slice
    # completes the process and 0 when it runs the quantum), one per
    # completion in one (its run, the work left), per cycle in two; no
    # record, and no new object
    ks, runs, quanta, counts = [], [], [], []
    terminations = bytearray()
    clock = arrivals[0]
    # the first slice and each that starts after an idle gap: its index and start
    break_at, break_start = [0], [clock]
    ptr = bisect_right(arrivals, clock)  # first admitted: every process there at the start
    # the queue: each process's submission index, and its remaining work.  One
    # stable sort ranks the first batch as admit's inserts would, one at a time.
    index = sorted(incoming[:ptr], key=burst_col.__getitem__) if ascending else incoming[:ptr]
    remaining = list(map(burst_col.__getitem__, index))
    due = arrivals[ptr]

    def admit(upto: int) -> int:  # enqueue arrivals up to ``upto``; return the next one's time
        nonlocal ptr
        while arrivals[ptr] <= upto:
            k, burst = incoming[ptr], bursts[ptr]
            if ascending:
                at = bisect_right(remaining, burst)  # ranks as rank_order does
                index.insert(at, k)
                remaining.insert(at, burst)
            else:
                index.append(k)
                remaining.append(burst)
            ptr += 1
        return arrivals[ptr]

    while index or due != never:
        if not index:
            clock = due
            break_at.append(len(ks))
            break_start.append(clock)
            due = admit(clock)
            continue

        queue = _new(ReadyQueue)  # no Python __init__ runs
        queue.submission_index, queue.remaining, queue._columns = index, remaining, columns
        snapshot = _snapshot((queue, clock, len(quanta) + 1))
        checked = plan(snapshot)
        # the common plan, accepted here: the queue as it stands, an int quantum >= 1
        if (type(checked) is tuple and len(checked) == 2 and checked[0] is queue
                and type(checked[1]) is int and checked[1] >= 1):
            run_index, run_remaining, quantum = index, remaining, checked[1]
        else:
            run_index, run_remaining, quantum = _check_plan(policy, snapshot, checked)
        quanta.append(quantum)
        watch = due if mode != CYCLE_BOUNDARY else never  # an arrival that acts mid-cycle
        if len(run_index) == 1:
            # one slice: an arrival during it can only join the next cycle
            k, work = run_index[0], run_remaining[0]
            ks.append(k)
            index, remaining = [], []  # new lists: the snapshot's view keeps the ones it was handed
            if work > quantum:
                terminations.append(0)
                clock += quantum
                if clock >= due and tail_rejoin:
                    due = admit(clock)  # same-ms arrivals enqueue before the preempted one
                index.append(k)
                remaining.append(work - quantum)
            else:
                runs.append(work)
                terminations.append(1)
                clock += work
            counts.append(1)
        elif ascending and watch == never and len(run_index) >= BULK_QUEUE_MIN:
            # bulk: the queue ascends, so the processes with no more work than
            # the quantum, which finish, are its first ``cut``; the rest expire
            n, cut = len(run_index), bisect_right(run_remaining, quantum)
            finished = run_remaining[:cut]
            ks += run_index
            runs += finished
            terminations += b"\x01" * cut
            terminations += bytes(n - cut)
            clock += sum(finished) + quantum * (n - cut)
            # new lists: the snapshot's view keeps the ones it was handed
            index = run_index[cut:]
            remaining = list(map(sub, run_remaining[cut:], repeat(quantum)))
            counts.append(n)
        else:
            first = len(ks)  # the cycle's first slice
            index, remaining = [], []  # the next cycle's queue, filled in execution order
            for k, work in zip(run_index, run_remaining):
                left = work - quantum
                ks.append(k)
                if left > 0:
                    clock += quantum
                else:
                    runs.append(work)
                    clock += work
                terminations.append(left <= 0)
                if clock >= watch and tail_rejoin:
                    watch = due = admit(clock)  # same-ms arrivals enqueue before the preempted one
                if left > 0:
                    index.append(k)
                    remaining.append(left)
                if clock >= watch:  # slice-boundary restart: abandon the cycle, replan over all
                    index += run_index[len(ks) - first:]  # the processes not yet dispatched
                    remaining += run_remaining[len(ks) - first:]
                    break
            counts.append(len(ks) - first)
        if clock >= due:
            due = admit(clock)

    return ExecutionTrace(policy.descriptor,
                          SliceView._raw(pid_col, ks, runs, terminations, quanta, counts,
                                         break_at, break_start, clock),
                          passes=tail_rejoin)


def trace_violations(trace: ExecutionTrace, workload: Workload) -> list[str]:
    """All ExecutionTrace invariants violated by ``trace``, as messages.

    One walk over ``trace.slices`` checks the tiling and each slice against
    its process's remaining work.  A trace runs forward in time, so the
    hole before each break is an idle gap, and every process that arrived
    before its end must already be finished; a slice that starts before
    the earliest arrival overlaps.  Each slice runs within the quantum that
    its trace stores once for its cycle, so no quantum below 1 passes.  A
    slice that ran a quantum of 1 or more and leaves its process work is
    tested against its arrival only at the process's first slice: no start
    falls before a message, and every slice after one is tested in full.

    The walk reads each slice's process by its index into the trace's pid
    table.  A trace from :func:`simulate` shares its workload's pid column
    as that table; another table is mapped to the workload once, and a
    slice whose pid the workload lacks is reported and checked no further.
    Messages come in slice order.  A slice's come in this order: an
    overlap or idle gap, unknown pid, length, arrival, completion mark.
    After the slices come the processes whose executed work is not their
    burst, in submission order.
    """
    return _walk_trace(trace, workload)[0]


def _walk_trace(trace: ExecutionTrace, workload: Workload) -> tuple[list[str], list, list]:
    """:func:`trace_violations`' messages, plus each process's completion time
    and first dispatch, in submission order; the two lists are complete only
    when there are no messages.

    The walk goes a run at a time: the cycles of one quantum up to the next
    break, that quantum a local.  It reads each slice as its process's
    submission index ``k``, into lists, and its termination byte; its run is
    the next stored one, or with byte 0 the run's quantum.  It derives the
    slice's start and end from the break before it and the runs since, and
    tests the tiling once per break.  A slice not tested against its
    arrival only counts its work; in any other, each group of checks sits
    behind one test that a valid slice passes, and the detailed tests run
    only when it trips.  Until ``exact`` falls, every finished process
    arrived before a gap, so the gap test reads one of the sorted arrivals.
    """
    problems: list[str] = []
    pid_col, arrival_col, burst_col = workload.columns
    n = len(pid_col)
    view = trace.slices
    table, index = view._table, view._index
    names = pid_col  # each process's pid, by the index the walk reads
    if table is not pid_col and table != pid_col:  # a hand-built table, mapped once
        position = dict(zip(pid_col, range(n)))
        index = map([position.get(pid, n + j) for j, pid in enumerate(table)].__getitem__, index)
        names = pid_col + table  # a pid the workload lacks maps past n, to its own name
    arrival = [*arrival_col, *repeat(_INF, len(names) - n)]
    left = list(burst_col)  # the work each process has left
    completion, first_dispatch = [None] * n, [None] * len(names)  # an unknown pid's stays None
    arrivals = sorted(arrival_col)
    first = arrivals[0]  # no slice may start before the earliest arrival
    arrivals.append(_INF)  # ``arrivals[finished]`` once all have finished
    finished = 0
    end = -_INF  # the end of the slice before the break
    slices = zip(index, view._termination)
    stored = iter(view._run)  # the runs of slices with byte 1 or 2, in order
    runs = None  # every slice's run, built only to word an overlap
    quanta = view._quanta  # a run of one quantum ends at the last cycle and before a new quantum
    quantum_runs = compress(zip(accumulate(view._counts), quanta), map(ne, quanta, [*quanta[1:], None]))
    stop_q, exact = 0, True  # where the run stops; False once a start may precede an arrival
    for start, at, stop in zip(view._break_start, view._break_at, view._stops()):
        # a break's start, then the runs since it.  An idle gap runs from the
        # later of the earliest arrival and the last slice's end; processes
        # that finished ran before it, so they arrived before its end
        if start > end and (arrivals[finished] < start if exact
                            else bisect_left(arrivals, start) != finished):
            for other, arrived, rest in zip(pid_col, arrival_col, left):  # a loop, so that
                if arrived < start and rest > 0:  # start and end stay fast locals, not cells
                    problems.append(f"idle gap [{max(first, end)},{start}) while {other} is runnable")
        # SliceView.of refuses overlaps and runs below 1 ms, but the engine's
        # view skips it, so the walk still tests for both
        elif start < end:
            runs = runs or view._slice_runs()
            problems.append(f"interval [{start},{start + runs[at]}) overlaps the previous one")
            exact = fast = False
        end = start
        while at < stop:
            if at == stop_q:  # the next quantum's run
                stop_q, q = next(quantum_runs)
                fast = exact and q > 0  # a slice with byte 0 may take the short body
            length = (stop_q if stop_q < stop else stop) - at
            at += length
            for k, termination in islice(slices, length):
                if termination:
                    run = next(stored)
                elif fast and first_dispatch[k] is not None and (rest := left[k] - q) > 0:
                    left[k] = rest
                    end += q
                    continue
                else:
                    run = q
                start = end
                end = start + run
                if not (0 < run and run <= q and arrival[k] <= start):
                    exact = fast = False
                    if start < first:  # before every arrival, so before its own
                        problems.append(f"interval [{start},{end}) overlaps the previous one")
                    pid = names[k]
                    if k >= n:
                        problems.append(f"slice for unknown pid {pid!r}")
                        continue
                    if run <= 0:
                        problems.append(f"empty or reversed slice {pid} [{start},{end})")
                    if run > q:
                        problems.append(f"slice {pid} [{start},{end}) exceeds quantum {q}")
                    if start < arrival[k]:
                        problems.append(f"slice {pid} starts at {start} before arrival {arrival[k]}")
                if first_dispatch[k] is None:
                    first_dispatch[k] = start
                rest = left[k] = left[k] - run
                if rest <= 0:
                    if termination != 1:
                        problems.append(f"last slice of {names[k]} not marked completed")
                    if rest + run > 0:  # this slice used up the last of the burst
                        finished += 1
                        completion[k] = end
                elif termination == 1:
                    problems.append(f"non-final slice of {names[k]} marked completed")

    if any(left):  # one pass in C: a valid trace leaves no process any work
        problems.extend(f"pid {pid}: executed {burst - rest} ms, burst is {burst} ms"
                        for pid, burst, rest in zip(pid_col, burst_col, left) if rest)
    del first_dispatch[n:]
    return problems, completion, first_dispatch

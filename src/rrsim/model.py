"""Domain types shared by the simulator: processes, workloads and traces.

All times are integer milliseconds; a hand-built trace, too, holds only
what a run writes, and runs forward in time. Values are read-only after
construction, so they can be shared freely between concurrent
simulations: records are named tuples, a trace is a frozen dataclass
whose slices sit behind a view that offers no mutator, and a workload
refuses assignment.

A workload stores its processes as three columns, pid, arrival and burst,
in submission order; the engine, the trace check and the metrics read
those.  Validity of a record is defined once, by ``ProcessSpec``'s own
check, and every workload goes through one check, ``_validate_columns``.
A workload that is parsed, generated or a built-in fixture builds no
``ProcessSpec`` unless its ``processes`` are read.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import add, sub
from typing import NamedTuple


class WorkloadError(ValueError):
    """A workload record violates a structural invariant."""


def decimal_int(text: str) -> int:
    """``text`` as an int if it is an optional ``-`` and ASCII digits, else
    ``ValueError``; ``int()`` alone takes ``+5``, ``1_0`` and non-ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def record_builder(cls):
    """A C callable that builds a ``cls`` from one iterable of its fields.

    It is ``tuple.__new__`` bound to ``cls``: no Python ``__new__`` runs and
    the field count is not checked, so use it only for a named tuple that
    defines no check of its own, and hand it exactly its fields.
    """
    return partial(tuple.__new__, cls)


def _has_utf8_form(text: str) -> bool:
    try:  # a lone surrogate has none, so no workload file can hold it
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_utf8(text: str, what: str) -> None:
    if not _has_utf8_form(text):
        raise WorkloadError(f"{what} {text!r} holds a lone surrogate")


class _ProcessFields(NamedTuple):
    pid: str
    arrival: int
    burst: int


class ProcessSpec(_ProcessFields):
    """One process: identifier, arrival time (ms) and CPU burst (ms).

    A named tuple that checks its record however it is built: called,
    through ``_make`` or through ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, pid: str, arrival: int, burst: int):
        if not isinstance(pid, str) or type(arrival) is not int or type(burst) is not int:
            raise WorkloadError(f"record {(pid, arrival, burst)!r} "
                                f"needs a str pid and int times")
        if not pid:
            raise WorkloadError(f"empty pid in record {(pid, arrival, burst)!r}")
        if pid != pid.strip() or "," in pid or "\r" in pid or "\n" in pid:
            raise WorkloadError(f"pid {pid!r} has a comma, a line break or "
                                f"edge whitespace, so it cannot round-trip through CSV")
        _check_utf8(pid, "pid")
        if arrival < 0:
            raise WorkloadError(f"process {pid!r} has negative arrival {arrival}")
        if burst < 1:
            raise WorkloadError(f"process {pid!r} has non-positive burst {burst}")
        return tuple.__new__(cls, (pid, arrival, burst))

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds through ``_make`` too
        return cls(*super()._make(iterable))


class Workload:
    """An ordered, validated collection of processes.

    The sequence order is the submission order and is authoritative for
    FCFS/arrival tie-breaking; construction never re-sorts or converts it.
    ``columns`` holds the processes' pids, arrivals and bursts as three
    tuples in that order, computed once; ``processes`` is the tuple of
    ``ProcessSpec``, built from the columns on first read when the
    workload was built from columns alone.  A workload compares
    equal to, and hashes like, any other with the same processes and
    label.  Assigning an attribute raises ``AttributeError``.
    """

    __slots__ = ("columns", "label", "_processes")

    def __new__(cls, processes: tuple[ProcessSpec, ...], label: str = ""):
        if not isinstance(processes, tuple) or not all(isinstance(p, ProcessSpec) for p in processes):
            raise WorkloadError("a Workload needs a tuple of ProcessSpec and a str label")
        columns = tuple(zip(*processes)) or ((), (), ())  # no process, no column to zip
        return _validate_columns(*columns, label, processes)

    @property
    def processes(self) -> tuple[ProcessSpec, ...]:
        if self._processes is None:  # checked again, by the record's own constructor
            _set(self, "_processes", tuple(map(ProcessSpec, *self.columns)))
        return self._processes

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Workload.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Workload.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.columns, self.label) == (other.columns, other.label)

    def __hash__(self) -> int:
        return hash((self.columns, self.label))

    def __repr__(self) -> str:
        return f"Workload(processes={self.processes!r}, label={self.label!r})"

    def __reduce__(self):  # copy and pickle through the checked constructor
        return Workload, (self.processes, self.label)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return iter(self.processes)


_set = object.__setattr__


def validate_workload(records, label: str = "") -> Workload:
    """Build a Workload from (pid, arrival, burst) records.

    Input order is preserved exactly.  Nothing is converted: a pid must be
    a ``str`` and times must be ``int`` (not ``bool``).

    Raises:
        WorkloadError: ``records`` is not iterable, a record is not a triple
            or the workload is invalid; the message names the offender.
    """
    try:
        records = iter(records)
    except TypeError:
        raise WorkloadError(f"records {records!r} are not iterable") from None
    procs = []
    for record in records:
        try:
            pid, arrival, burst = record
        except (TypeError, ValueError):
            raise WorkloadError(f"record {record!r} is not a (pid, arrival, burst) triple") from None
        procs.append(ProcessSpec(pid, arrival, burst))
    return Workload(processes=tuple(procs), label=label)


def _validate_columns(pid: Sequence[str], arrival: Sequence[int], burst: Sequence[int],
                      label: str = "", processes: tuple[ProcessSpec, ...] | None = None) -> Workload:
    """The workload of three columns and ``label``, or its first broken rule.

    ``processes``, if given, are the columns' records, already checked.
    The columns must have one length, each pid must be a ``str`` and each
    time an ``int``, which the screen does not test.  A screen of a few C
    calls per column decides.  On doubt a walk words the first broken
    rule: each record, through ``ProcessSpec``; the label's type, then its
    UTF-8 form; an empty workload; the first repeated pid.
    """
    pid, arrival, burst = columns = tuple(pid), tuple(arrival), tuple(burst)
    text = "".join(pid)
    if not (isinstance(label, str) and pid and all(pid) and len(set(pid)) == len(pid)
            and min(arrival) >= 0 and min(burst) >= 1
            and "," not in text and "\r" not in text and "\n" not in text
            and tuple(map(str.strip, pid)) == pid and _has_utf8_form(text + label)):
        if processes is None:
            processes = tuple(map(ProcessSpec, pid, arrival, burst))
        if not isinstance(label, str):
            raise WorkloadError("a Workload needs a tuple of ProcessSpec and a str label")
        _check_utf8(label, "label")
        if not processes:
            raise WorkloadError("workload contains no processes")
        seen = set()
        for name in pid:
            if name in seen:
                raise WorkloadError(f"duplicate pid {name!r}")
            seen.add(name)
    workload = object.__new__(Workload)
    _set(workload, "columns", columns)
    _set(workload, "label", label)
    _set(workload, "_processes", processes)
    return workload


COMPLETED = "completed"
QUANTUM_EXPIRED = "quantum_expired"
# by the byte a SliceView stores for each; a slice with byte 0 ran its cycle's quantum
_TERMINATIONS = (QUANTUM_EXPIRED, COMPLETED, QUANTUM_EXPIRED)


class Slice(NamedTuple):
    """One contiguous dispatch of a process, in its cycle, at that cycle's quantum."""

    pid: str
    start: int
    end: int
    cycle: int
    quantum_in_effect: int
    termination: str  # COMPLETED or QUANTUM_EXPIRED


_slice = record_builder(Slice)


class IdleGap(NamedTuple):
    """An interval during which no admitted process had remaining work."""

    start: int
    end: int


class SliceView(Sequence):
    """A read-only sequence of :class:`Slice`, stored as two columns of one
    value per slice, one of one value per completed slice, two lists of one
    value per cycle and two of one per break.

    Per slice: the index of its pid in a pid table, in a list, and its
    termination as one byte of a ``bytearray``.  Per cycle: the quantum and
    the number of slices.  A slice's run ``end - start`` is its cycle's
    quantum unless it is stored: byte 0 is ``QUANTUM_EXPIRED`` after a run
    of the quantum, byte 1 is ``COMPLETED``, and byte 2 is
    ``QUANTUM_EXPIRED`` after any other run, which only :meth:`of` writes.
    The runs of slices with byte 1 or 2 sit in one list, in slice order.  A
    slice starts where the one before it ended, except at a break: the first
    slice, and each one after an idle gap.  Per break: the slice's index and
    its start.  Start and end times are thus derived, and the engine stores
    no new int per slice and no run for a slice that preempts its process.
    A ``Slice`` is built only when the view is indexed or iterated, with
    its termination read back as the module's own constant; ``view[a:b]``
    is a ``tuple`` of them.  ``columns`` gives, in ``Slice`` field order,
    each slice's pid, start, end, cycle, quantum and termination as
    one-shot iterators.  Build one with :meth:`of`; ``SliceView(…)`` takes
    no arguments, and only ``simulate`` builds one unchecked, through
    ``_raw``.
    """

    __slots__ = ("_table", "_index", "_run", "_termination", "_quanta", "_counts",
                 "_break_at", "_break_start", "_end", "_starts", "_runs_by_slice", "_cycle_ends")

    @classmethod
    def _raw(cls, *values):  # unchecked, for ``simulate``: the first nine slots, in order
        view = object.__new__(cls)
        (view._table, view._index, view._run, view._termination, view._quanta, view._counts,
         view._break_at, view._break_start, view._end) = values  # _end: no read rescans the runs
        view._starts = view._runs_by_slice = view._cycle_ends = None  # built on first index
        return view

    @classmethod
    def of(cls, slices: Iterable[Slice]) -> "SliceView":
        """The view of ``slices``, each run of one ``cycle`` being that cycle.

        ``ValueError`` names the first slice that is not what ``simulate``
        writes (a ``str`` pid, an ``int`` start, end, cycle and quantum, and
        ``COMPLETED`` or ``QUANTUM_EXPIRED``), or whose cycle is neither the
        last one nor the next, counting from 1, or whose quantum is not its
        cycle's, or that runs less than 1 ms or starts before the slice
        before it ends.
        """
        table, index, run, quanta, counts, break_at, break_start = {}, [], [], [], [], [], []
        termination = bytearray()
        end = 0
        for i, item in enumerate(slices):
            try:
                pid, start, stop, c, q, term = item
            except (TypeError, ValueError):
                pid = None  # not six fields, so refused just below
            if not (isinstance(pid, str) and type(start) is type(stop) is type(c) is type(q) is int
                    and term in (COMPLETED, QUANTUM_EXPIRED)):
                raise ValueError(f"slice {i} {item!r} is not six fields: a str pid, an int start, "
                                 f"end, cycle and quantum, and {COMPLETED!r} or {QUANTUM_EXPIRED!r}")
            if c == len(counts) + 1:  # the next cycle
                quanta.append(q)
                counts.append(0)
            elif not (counts and c == len(counts) and q == quanta[-1]):
                raise ValueError(f"slice {i} in cycle {c!r} at quantum {q!r} cannot follow cycle "
                                 f"{len(counts)}" + (f" at quantum {quanta[-1]!r}" if quanta else ""))
            if stop <= start or (i and start < end):
                raise ValueError(f"slice {i} [{start},{stop}) " + (
                    "runs less than 1 ms" if stop <= start
                    else f"starts before {end}, where the slice before it ends"))
            counts[-1] += 1
            if not i or start != end:
                break_at.append(i)
                break_start.append(start)
            index.append(table.setdefault(pid, len(table)))
            # a run of the cycle's quantum that preempts is implied, not stored
            code = 1 if term == COMPLETED else 0 if stop - start == q else 2
            if code:
                run.append(stop - start)
            termination.append(code)
            end = stop
        return cls._raw(tuple(table), index, run, termination, quanta, counts, break_at,
                        break_start, end)

    def _stops(self) -> list[int]:
        """The slice after each break's run of slices, which the next break starts."""
        return [*self._break_at[1:], len(self._termination)]

    def _slice_runs(self) -> list[int]:
        """Each slice's run: its cycle's quantum, then each stored run put
        in place of its slice's, a scatter in C."""
        runs = list(self._per_slice(self._quanta))
        deque(map(runs.__setitem__, compress(count(), self._termination), self._run), 0)
        return runs

    def _start_times(self, runs: list[int]):
        """Each slice's start: its break's start plus the ``runs`` since that break."""
        # each break's runs but its last, after the break's start
        runs = map(runs.__getitem__, map(slice, self._break_at,
                                         map(sub, self._stops(), repeat(1))))
        return chain.from_iterable(map(accumulate, map(chain, zip(self._break_start), runs)))

    def _per_slice(self, per_cycle: Iterable):
        """One value per cycle, repeated for each slice of that cycle."""
        return chain.from_iterable(map(repeat, per_cycle, self._counts))

    @property
    def columns(self) -> tuple:
        runs = self._slice_runs()
        return (map(self._table.__getitem__, self._index), self._start_times(runs),
                map(add, self._start_times(runs), runs), self._per_slice(count(1)),
                self._per_slice(self._quanta), map(_TERMINATIONS.__getitem__, self._termination))

    def __len__(self) -> int:
        return len(self._termination)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]  # an index as a list takes it, negative ones too
        if self._starts is None:  # one pass; then a read is a bisect over the cycles
            self._runs_by_slice = self._slice_runs()
            self._starts = list(self._start_times(self._runs_by_slice))
            self._cycle_ends = list(accumulate(self._counts))
        c = bisect_right(self._cycle_ends, i)  # the number of cycles before slice i's
        start = self._starts[i]
        return _slice((self._table[self._index[i]], start, start + self._runs_by_slice[i], c + 1,
                       self._quanta[c], _TERMINATIONS[self._termination[i]]))

    def __iter__(self):
        return map(_slice, zip(*self.columns))

    def __eq__(self, other):
        if not isinstance(other, SliceView):
            return tuple(self) == other if isinstance(other, tuple) else NotImplemented
        mine = (self._run, self._termination, self._quanta, self._counts,
                self._break_at, self._break_start)
        return (mine == (other._run, other._termination, other._quanta, other._counts,
                         other._break_at, other._break_start)
                and (self._index == other._index if self._table == other._table
                     else [*map(self._table.__getitem__, self._index)]
                     == [*map(other._table.__getitem__, other._index)]))

    def __hash__(self) -> int:
        return hash(tuple(self))  # equal to the tuple it equals

    def __repr__(self) -> str:
        return f"SliceView({tuple(self)!r})"


class PolicyDescriptor(NamedTuple):
    """Names a scheduling policy plus its integer parameters."""

    name: str
    parameters: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, name: str, **params: int) -> "PolicyDescriptor":
        return cls(name, tuple(sorted(params.items())))

    def spec_string(self) -> str:
        """Render the CLI form, e.g. ``rr:q=25`` or ``dabrr``."""
        head = self.name.lower()
        if not self.parameters:
            return head
        return head + ":" + ",".join(f"{k}={v}" for k, v in self.parameters)


@dataclass(frozen=True)
class ExecutionTrace:
    """Everything one simulation run produced; slices in time order.

    ``slices`` may be given as any sequence of ``Slice``; it is stored
    through :meth:`SliceView.of`.  ``passes`` marks a trace whose cycles are
    passes over one FIFO queue (``tail_rejoin``), not quantum decisions.
    """

    algorithm: PolicyDescriptor
    slices: SliceView
    passes: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        if not isinstance(self.slices, SliceView):
            object.__setattr__(self, "slices", SliceView.of(self.slices))

    @property
    def quantum_log(self) -> tuple[tuple[int, int], ...]:
        """(cycle index, quantum ms) per cycle; for passes, per change of
        quantum only, so classic round robin logs ``((1, q),)``."""
        quanta = self.slices._quanta
        return tuple((c, q) for c, q, before in zip(count(1), quanta, [None, *quanta])
                     if not self.passes or q != before)

    def end_time(self) -> int:
        return self.slices._end

    @property
    def idles(self) -> tuple[IdleGap, ...]:
        """The idle gaps: the hole before each break but the first slice."""
        view = self.slices
        runs = map(view._slice_runs().__getitem__, map(slice, view._break_at, view._stops()))
        ends = map(reduce, repeat(add), runs, view._break_start)  # each break's run's end
        return tuple(map(IdleGap, ends, view._break_start[1:]))

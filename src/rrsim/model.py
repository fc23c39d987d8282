"""Domain types shared by the simulator: processes, workloads and traces.

All times are integer milliseconds. Values are read-only after
construction, so they can be shared freely between concurrent simulations:
records are named tuples, a trace is a frozen dataclass whose slices sit
behind a view that offers no mutator, and a workload refuses assignment.

A workload stores its processes as three columns, pid, arrival and burst,
in submission order; the engine, the trace check and the metrics read
those.  Validity of a record is defined once, by ``ProcessSpec``'s own
check.  A workload that is parsed, generated or a built-in fixture
builds no ``ProcessSpec`` unless its ``processes`` are read:
``_validate_columns`` screens the columns in C and leaves any wording
of a rejection to that check.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
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
            raise WorkloadError(f"record {(pid, arrival, burst)!r} needs a "
                                f"str pid and int times")
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
    workload came from ``_validate_columns``.  A workload compares
    equal to, and hashes like, any other with the same processes and
    label.  Assigning an attribute raises ``AttributeError``.
    """

    __slots__ = ("columns", "label", "_processes")

    def __init__(self, processes: tuple[ProcessSpec, ...], label: str = ""):
        if (not isinstance(processes, tuple) or not isinstance(label, str)
                or not all(isinstance(p, ProcessSpec) for p in processes)):
            raise WorkloadError("a Workload needs a tuple of ProcessSpec and a str label")
        _check_utf8(label, "label")
        if not processes:
            raise WorkloadError("workload contains no processes")
        seen = set()
        for proc in processes:
            if proc.pid in seen:
                raise WorkloadError(f"duplicate pid {proc.pid!r}")
            seen.add(proc.pid)
        _set(self, "columns", tuple(zip(*processes)))
        _set(self, "label", label)
        _set(self, "_processes", processes)

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
        WorkloadError: ``records`` is not iterable or empty, or a record is
            invalid or not a triple; the message names the offender.
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


def _validate_columns(pid: list[str], arrival: list[int], burst: list[int],
                      label: str = "") -> Workload:
    """``validate_workload(zip(pid, arrival, burst), label)``, built from
    three columns without a ``ProcessSpec`` when every record is valid.

    The package's parsers, generator and fixtures are its only callers:
    the three columns must have one length, each pid must be a ``str``
    and each time an ``int``, which the screen does not test.  A screen
    of a few C calls per column passes only columns that
    ``validate_workload`` accepts; whatever it doubts goes through
    ``validate_workload``, so the record check words every rejection.
    """
    text = "".join(pid)
    if not (isinstance(label, str) and pid and all(pid) and len(set(pid)) == len(pid)
            and min(arrival) >= 0 and min(burst) >= 1
            and "," not in text and "\r" not in text and "\n" not in text
            and list(map(str.strip, pid)) == pid and _has_utf8_form(text + label)):
        return validate_workload(zip(pid, arrival, burst), label)
    workload = Workload.__new__(Workload)
    _set(workload, "columns", (tuple(pid), tuple(arrival), tuple(burst)))
    _set(workload, "label", label)
    _set(workload, "_processes", None)
    return workload


COMPLETED = "completed"
QUANTUM_EXPIRED = "quantum_expired"


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
    """A read-only sequence of :class:`Slice`, stored as four lists of one
    value per slice (pid, start, end, termination) and two of one value per
    cycle (quantum, number of slices).  A ``Slice`` is built only when the
    view is indexed or iterated; ``view[a:b]`` is a ``tuple`` of them.
    ``columns`` gives, in ``Slice`` field order, the shared per-slice lists
    (never change them) and each slice's cycle and quantum as one-shot
    iterators.  Values are kept exactly as given, ints of any size included.
    """

    __slots__ = ("_lists", "_ends")

    def __init__(self, pid: list, start: list, end: list, termination: list,
                 quanta: list, counts: list):
        self._lists = (pid, start, end, termination, quanta, counts)
        self._ends = None  # the running sum of ``counts``, built on first index

    @classmethod
    def of(cls, slices: Iterable[Slice]) -> "SliceView":
        """The view of ``slices``, each run of one ``cycle`` being that cycle.
        ``ValueError`` names the first slice whose cycle is neither the last
        one nor the next, counting from 1, or whose quantum is not its cycle's."""
        pid, start, end, cycle, quantum, termination = (
            [list(column) for column in zip(*slices)] or [[] for _ in Slice._fields])
        quanta, counts = [], []
        for i, (c, q) in enumerate(zip(cycle, quantum)):
            if c == len(counts) + 1:  # the next cycle
                quanta.append(q)
                counts.append(0)
            elif not (counts and c == len(counts) and q == quanta[-1]):
                raise ValueError(f"slice {i} in cycle {c!r} at quantum {q!r} cannot follow cycle "
                                 f"{len(counts)}" + (f" at quantum {quanta[-1]!r}" if quanta else ""))
            counts[-1] += 1
        return cls(pid, start, end, termination, quanta, counts)

    @property
    def columns(self) -> tuple:
        pid, start, end, termination, quanta, counts = self._lists
        return (pid, start, end, chain.from_iterable(map(repeat, count(1), counts)),
                chain.from_iterable(map(repeat, quanta, counts)), termination)

    def __len__(self) -> int:
        return len(self._lists[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        pid, start, end, termination, quanta, counts = self._lists
        i = range(len(pid))[index]  # an index as a list takes it, negative ones too
        if self._ends is None:
            self._ends = list(accumulate(counts))
        c = bisect_right(self._ends, i)  # the number of cycles before slice i's
        return _slice((pid[i], start[i], end[i], c + 1, quanta[c], termination[i]))

    def __iter__(self):
        return map(_slice, zip(*self.columns))

    def __eq__(self, other):
        if isinstance(other, SliceView):
            return self._lists == other._lists
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

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
        quanta = self.slices._lists[4]
        return tuple((c, q) for c, q, before in zip(count(1), quanta, [None, *quanta])
                     if not self.passes or q != before)

    def end_time(self) -> int:
        ends = self.slices.columns[2]
        return ends[-1] if ends else 0

    @property
    def idles(self) -> tuple[IdleGap, ...]:
        """The idle gaps: the hole between each pair of consecutive slices."""
        _, starts, ends, *_ = self.slices.columns
        return tuple(IdleGap(end, start) for end, start in zip(ends, islice(starts, 1, None))
                     if end < start)

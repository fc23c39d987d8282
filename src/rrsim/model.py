"""Domain types shared by the simulator: processes, workloads and traces.

All times are integer milliseconds. Values are frozen after construction,
so they can be shared freely between concurrent simulations.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
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


def _check_utf8(text: str, what: str) -> None:
    try:  # a lone surrogate has no UTF-8 form, so no workload file can hold it
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise WorkloadError(f"{what} {text!r} holds a lone surrogate") from None


@dataclass(frozen=True)
class ProcessSpec:
    """One process: identifier, arrival time (ms) and CPU burst (ms)."""

    pid: str
    arrival: int
    burst: int

    def __post_init__(self):
        pid = self.pid
        if not isinstance(pid, str) or {type(self.arrival), type(self.burst)} != {int}:
            raise WorkloadError(f"record {(pid, self.arrival, self.burst)!r} needs a "
                                f"str pid and int times")
        if not pid:
            raise WorkloadError(f"empty pid in record {(pid, self.arrival, self.burst)!r}")
        if pid != pid.strip() or "," in pid or "\r" in pid or "\n" in pid:
            raise WorkloadError(f"pid {pid!r} has a comma, a line break or "
                                f"edge whitespace, so it cannot round-trip through CSV")
        _check_utf8(pid, "pid")
        if self.arrival < 0:
            raise WorkloadError(f"process {pid!r} has negative arrival {self.arrival}")
        if self.burst < 1:
            raise WorkloadError(f"process {pid!r} has non-positive burst {self.burst}")


@dataclass(frozen=True)
class Workload:
    """An ordered, validated collection of processes.

    The sequence order is the submission order and is authoritative for
    FCFS/arrival tie-breaking; construction never re-sorts or converts it.
    """

    processes: tuple[ProcessSpec, ...]
    label: str = ""

    def __post_init__(self):
        procs = self.processes
        if (not isinstance(procs, tuple) or not isinstance(self.label, str)
                or not all(isinstance(p, ProcessSpec) for p in procs)):
            raise WorkloadError("a Workload needs a tuple of ProcessSpec and a str label")
        _check_utf8(self.label, "label")
        if not procs:
            raise WorkloadError("workload contains no processes")
        seen = set()
        for proc in procs:
            if proc.pid in seen:
                raise WorkloadError(f"duplicate pid {proc.pid!r}")
            seen.add(proc.pid)

    def __len__(self) -> int:
        return len(self.processes)

    def __iter__(self):
        return iter(self.processes)

    def pids(self) -> tuple[str, ...]:
        return tuple(p.pid for p in self.processes)

    def by_pid(self) -> dict[str, ProcessSpec]:
        return {p.pid: p for p in self.processes}

    def total_burst(self) -> int:
        return sum(p.burst for p in self.processes)

    def min_arrival(self) -> int:
        return min(p.arrival for p in self.processes)


def validate_workload(records, label: str = "") -> Workload:
    """Build a Workload from (pid, arrival, burst) records.

    Input order is preserved exactly.  Nothing is converted: a pid must be
    a ``str`` and times must be ``int`` (not ``bool``).

    Raises:
        WorkloadError: no records were given, or a record is invalid; the
            message names the offender.
    """
    procs = tuple(ProcessSpec(pid, arrival, burst) for pid, arrival, burst in records)
    return Workload(processes=procs, label=label)


COMPLETED = "completed"
QUANTUM_EXPIRED = "quantum_expired"


class Slice(NamedTuple):
    """One contiguous dispatch of a process."""

    pid: str
    start: int
    end: int
    cycle: int
    quantum_in_effect: int
    termination: str  # COMPLETED or QUANTUM_EXPIRED

    @property
    def duration(self) -> int:
        return self.end - self.start


class IdleGap(NamedTuple):
    """An interval during which no admitted process had remaining work."""

    start: int
    end: int


@dataclass(frozen=True)
class PolicyDescriptor:
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
    """Everything one simulation run produced; slices in time order."""

    algorithm: PolicyDescriptor
    slices: tuple[Slice, ...]
    quantum_log: tuple[tuple[int, int], ...] = ()  # (cycle index, quantum ms)

    def end_time(self) -> int:
        return self.slices[-1].end if self.slices else 0

    @property
    def idles(self) -> tuple[IdleGap, ...]:
        """The idle gaps: the hole between each pair of consecutive slices."""
        return tuple(IdleGap(a.end, b.start) for a, b in pairwise(self.slices) if a.end < b.start)

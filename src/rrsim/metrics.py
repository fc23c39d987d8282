"""Per-process and aggregate scheduling metrics, plus cross-run comparison.

Averages and percentages are carried as exact ``Fraction`` values and only
rounded when rendered (one decimal for averages, two for percentages), so
golden comparisons never drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .engine import _walk_trace, trace_violations  # noqa: F401 (bench/tracing.py wraps it)
from .model import ExecutionTrace, PolicyDescriptor, Workload


class InconsistentTrace(ValueError):
    """The trace does not satisfy its invariants against the workload."""


class MismatchedCaseSets(ValueError):
    """compare_runs received algorithms covering different case sets."""


@dataclass(frozen=True)
class ProcessMetrics:
    pid: str
    arrival: int
    burst: int
    completion: int
    turnaround: int  # completion - arrival
    waiting: int     # turnaround - burst
    response: int    # first dispatch - arrival


@dataclass(frozen=True)
class RunMetrics:
    descriptor: PolicyDescriptor
    per_process: tuple[ProcessMetrics, ...]
    avg_waiting: Fraction
    avg_turnaround: Fraction
    avg_response: Fraction
    context_switches: int
    makespan: int
    throughput: Fraction       # processes per ms
    cpu_utilization: Fraction  # percent
    quantum_log: tuple[tuple[int, int], ...]

    def quanta(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.quantum_log)


def context_switches(trace: ExecutionTrace) -> int:
    """Dispatch slices minus one.

    Quantum-expiry boundaries count even when the same process is
    re-dispatched immediately; idle gaps contribute nothing.
    """
    return len(trace.slices) - 1


def compute_metrics(trace: ExecutionTrace, workload: Workload) -> RunMetrics:
    """Derive all metrics from a trace.

    Raises:
        InconsistentTrace: the trace violates an invariant (the message
            lists every violation found).
    """
    problems, completion, first_dispatch = _walk_trace(trace, workload)
    if problems:
        raise InconsistentTrace("; ".join(problems))

    rows = []
    for p in workload.processes:
        turnaround = completion[p.pid] - p.arrival
        rows.append(ProcessMetrics(p.pid, p.arrival, p.burst, completion[p.pid], turnaround,
                                   waiting=turnaround - p.burst,
                                   response=first_dispatch[p.pid] - p.arrival))

    n = len(rows)
    makespan = trace.end_time() - workload.min_arrival()
    return RunMetrics(
        descriptor=trace.algorithm,
        per_process=tuple(rows),
        avg_waiting=Fraction(sum(r.waiting for r in rows), n),
        avg_turnaround=Fraction(sum(r.turnaround for r in rows), n),
        avg_response=Fraction(sum(r.response for r in rows), n),
        context_switches=context_switches(trace),
        makespan=makespan,
        throughput=Fraction(n, makespan),
        cpu_utilization=Fraction(workload.total_burst() * 100, makespan),
        quantum_log=trace.quantum_log,
    )


@dataclass(frozen=True)
class CaseAverages:
    case_id: str
    avg_waiting: Fraction
    avg_turnaround: Fraction
    context_switches: int


@dataclass(frozen=True)
class AlgorithmComparison:
    descriptor: PolicyDescriptor
    per_case: tuple[CaseAverages, ...]
    waiting_total: Fraction
    turnaround_total: Fraction
    context_switch_total: int
    waiting_gain_pct: Fraction
    turnaround_gain_pct: Fraction


@dataclass(frozen=True)
class ComparisonReport:
    """Cross-algorithm totals and percentage gains versus a baseline."""

    label: str
    case_ids: tuple[str, ...]
    baseline: PolicyDescriptor
    entries: tuple[AlgorithmComparison, ...]


def compare_runs(runs: Mapping[PolicyDescriptor, Mapping[str, RunMetrics]],
                 baseline: PolicyDescriptor,
                 label: str = "") -> ComparisonReport:
    """Aggregate per-case run metrics and compute gains against ``baseline``.

    ``runs`` maps each algorithm to its per-case metrics, keyed by case
    id.  Only ``avg_waiting``, ``avg_turnaround`` and ``context_switches``
    are read, so published reference rows aggregate the same way.  Every
    algorithm must cover the same case set and the baseline must be among
    them.
    """
    if baseline not in runs:
        raise MismatchedCaseSets(f"baseline {baseline.name} missing from runs")
    case_sets = {tuple(sorted(per_case)) for per_case in runs.values()}
    if len(case_sets) != 1:
        raise MismatchedCaseSets(f"algorithms cover different case sets: {case_sets}")
    case_ids = tuple(next(iter(runs.values())).keys())

    def totals(per_case: Mapping[str, RunMetrics]):
        waiting = sum((per_case[c].avg_waiting for c in case_ids), Fraction(0))
        turnaround = sum((per_case[c].avg_turnaround for c in case_ids), Fraction(0))
        switches = sum(per_case[c].context_switches for c in case_ids)
        return waiting, turnaround, switches

    base_waiting, base_turnaround, _ = totals(runs[baseline])

    entries = []
    for descriptor, per_case in runs.items():
        waiting, turnaround, switches = totals(per_case)
        entries.append(AlgorithmComparison(
            descriptor=descriptor,
            per_case=tuple(
                CaseAverages(c, per_case[c].avg_waiting, per_case[c].avg_turnaround,
                             per_case[c].context_switches)
                for c in case_ids),
            waiting_total=waiting,
            turnaround_total=turnaround,
            context_switch_total=switches,
            waiting_gain_pct=(base_waiting - waiting) / base_waiting * 100,
            turnaround_gain_pct=(base_turnaround - turnaround) / base_turnaround * 100,
        ))
    return ComparisonReport(label, case_ids, baseline, tuple(entries))


def round_half_up(value: Fraction, digits: int) -> Fraction:
    """Round to ``digits`` decimals, halves away from zero."""
    sign = -1 if value < 0 else 1
    scale = 10 ** digits
    scaled = abs(value) * scale
    whole = scaled.numerator // scaled.denominator
    if (scaled - whole) * 2 >= 1:
        whole += 1
    return Fraction(sign * whole, scale)


def _format(value: Fraction, digits: int) -> str:
    rounded = round_half_up(value, digits)
    scaled = rounded * 10 ** digits
    text = str(abs(int(scaled))).rjust(digits + 1, "0")
    sign = "-" if rounded < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def format_average(value: Fraction) -> str:
    """One-decimal rendering used for waiting/turnaround averages."""
    return _format(value, 1)


def format_percent(value: Fraction) -> str:
    """Two-decimal rendering used for percentage gains."""
    return _format(value, 2)

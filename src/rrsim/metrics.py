"""Run metrics, cross-run comparison, and their text, JSON and CSV renderers.

A run's per-process results are seven columns, which the renderers format
directly.  Averages and percentages are carried as exact ``Fraction`` values
and only rounded when rendered (one decimal for averages, two for percentages;
halves away from zero, in integer arithmetic), so golden comparisons never drift.
"""
from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Mapping, NamedTuple

from .engine import _walk_trace, trace_violations  # noqa: F401 (bench/tracing.py wraps it)
from .fileio import _indented_json, _json_row_template
from .model import ExecutionTrace, PolicyDescriptor, Workload


class InconsistentTrace(ValueError):
    """The trace does not satisfy its invariants against the workload."""


class MismatchedCaseSets(ValueError):
    """compare_runs received algorithms covering different case sets."""


class ProcessMetrics(NamedTuple):
    """One process's row, its fields in the order of ``PROCESS_COLUMNS``."""

    pid: str
    arrival: int
    burst: int
    completion: int
    turnaround: int  # completion - arrival
    waiting: int     # turnaround - burst
    response: int    # first dispatch - arrival


# The per-process columns of `run`: its JSON keys and its CSV header.  The
# text table drops the "_ms".
PROCESS_COLUMNS = ("pid", "arrival_ms", "burst_ms", "completion_ms",
                   "turnaround_ms", "waiting_ms", "response_ms")
_PROCESS_TEXT_ROW = "{:<8}{:>8}{:>7}{:>11}{:>11}{:>8}{:>9}"
_PROCESS_CSV_ROW = ",".join(["%s"] * len(PROCESS_COLUMNS)) + "\n"
_PROCESS_CSV_HEADER = ",".join(PROCESS_COLUMNS) + "\n"
_PROCESS_JSON_ROW = _json_row_template(PROCESS_COLUMNS)
_COMPARISON_ROW = "{:<14}{:>10}{:>12}{:>10}{:>11}{:>10}"


class RunMetrics(NamedTuple):
    descriptor: PolicyDescriptor
    workload_label: str
    columns: tuple  # one tuple or list per PROCESS_COLUMNS entry, in submission order
    avg_waiting: Fraction
    avg_turnaround: Fraction
    avg_response: Fraction
    context_switches: int
    makespan: int
    cpu_utilization: Fraction  # percent
    quantum_log: tuple[tuple[int, int], ...]

    @property
    def per_process(self) -> tuple[ProcessMetrics, ...]:
        """The rows of ``columns``, built on each read."""
        return tuple(map(ProcessMetrics, *self.columns))

    def quanta(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.quantum_log)

    def render_text(self) -> str:
        lines = [
            f"algorithm: {self.descriptor.spec_string()}",
            f"workload:  {self.workload_label or '(unlabeled)'}",
            f"quanta:    {format_quanta(self.quanta())}",
            "",
            _PROCESS_TEXT_ROW.format(*(c.removesuffix("_ms") for c in PROCESS_COLUMNS)),
            *map(_PROCESS_TEXT_ROW.format, *self.columns),
            "",
            f"average waiting time:    {format_average(self.avg_waiting)}",
            f"average turnaround time: {format_average(self.avg_turnaround)}",
            f"average response time:   {format_average(self.avg_response)}",
            f"context switches:        {self.context_switches}",
            f"makespan:                {self.makespan}",
            f"cpu utilization:         {format_percent(self.cpu_utilization)}%",
        ]
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return _indented_json({
            "algorithm": self.descriptor.spec_string(),
            "workload": self.workload_label,
            "quanta": self.quanta(),
            "per_process": iter(self.columns),
            "avg_waiting": float(format_average(self.avg_waiting)),
            "avg_turnaround": float(format_average(self.avg_turnaround)),
            "avg_response": float(format_average(self.avg_response)),
            "context_switches": self.context_switches,
            "makespan_ms": self.makespan,
            "cpu_utilization_pct": float(format_percent(self.cpu_utilization)),
        }, _PROCESS_JSON_ROW)

    def render_csv(self) -> str:
        return _PROCESS_CSV_HEADER + "".join(map(_PROCESS_CSV_ROW.__mod__, zip(*self.columns)))


def compute_metrics(trace: ExecutionTrace, workload: Workload) -> RunMetrics:
    """Derive all metrics from a trace.

    Raises:
        InconsistentTrace: the trace violates an invariant (the message
            lists every violation found).
    """
    problems, completion, first_dispatch = _walk_trace(trace, workload)
    if problems:
        raise InconsistentTrace("; ".join(problems))

    # column by column, in submission order: a C call per column, none per process
    pids, arrivals, bursts = workload.columns
    turnarounds = list(map(sub, completion, arrivals))
    waitings = list(map(sub, turnarounds, bursts))
    responses = list(map(sub, first_dispatch, arrivals))
    n = len(pids)
    makespan = trace.end_time() - min(arrivals)
    return RunMetrics(
        descriptor=trace.algorithm,
        workload_label=workload.label,
        columns=(pids, arrivals, bursts, completion, turnarounds, waitings, responses),
        avg_waiting=Fraction(sum(waitings), n),
        avg_turnaround=Fraction(sum(turnarounds), n),
        avg_response=Fraction(sum(responses), n),
        # dispatch slices minus one: a quantum expiry counts even when the
        # same process is re-dispatched at once, and idle gaps count nothing
        context_switches=len(trace.slices) - 1,
        makespan=makespan,
        cpu_utilization=Fraction(sum(bursts) * 100, makespan),
        quantum_log=trace.quantum_log,
    )


class AlgorithmComparison(NamedTuple):
    descriptor: PolicyDescriptor
    per_case: tuple  # the rows it was given, in the report's case_ids order
    waiting_total: Fraction
    turnaround_total: Fraction
    context_switch_total: int
    waiting_gain_pct: Fraction
    turnaround_gain_pct: Fraction


class ComparisonReport(NamedTuple):
    """Cross-algorithm totals and percentage gains versus a baseline."""

    label: str
    case_ids: tuple[str, ...]
    baseline: PolicyDescriptor
    entries: tuple[AlgorithmComparison, ...]

    def render_text(self) -> str:
        lines = [f"workload: {self.label}  (baseline {self.baseline.spec_string()})",
                 _COMPARISON_ROW.format("algorithm", "waiting", "turnaround", "switches",
                                        "wait gain", "tat gain")]
        lines += [_COMPARISON_ROW.format(e.descriptor.spec_string(),
                                         format_average(e.waiting_total),
                                         format_average(e.turnaround_total),
                                         e.context_switch_total,
                                         f"{format_percent(e.waiting_gain_pct)}%",
                                         f"{format_percent(e.turnaround_gain_pct)}%")
                  for e in self.entries]
        return "\n".join(lines) + "\n"


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

    def gain(base: Fraction, total: Fraction) -> Fraction:
        # A baseline that never waits ran no two processes ready together,
        # so no work-conserving policy waits either: no gain to report.
        return (base - total) / base * 100 if base else Fraction(0)

    entries = []
    for descriptor, per_case in runs.items():
        waiting, turnaround, switches = totals(per_case)
        entries.append(AlgorithmComparison(
            descriptor=descriptor,
            per_case=tuple(per_case[c] for c in case_ids),
            waiting_total=waiting,
            turnaround_total=turnaround,
            context_switch_total=switches,
            waiting_gain_pct=gain(base_waiting, waiting),
            turnaround_gain_pct=gain(base_turnaround, turnaround),
        ))
    return ComparisonReport(label, case_ids, baseline, tuple(entries))


def _format(value: Fraction, digits: int) -> str:
    n, d = value.numerator, value.denominator
    whole = (2 * abs(n) * 10 ** digits + d) // (2 * d)  # floor(|value| * 10**digits + 1/2)
    text = str(whole).rjust(digits + 1, "0")
    sign = "-" if n < 0 and whole else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def format_average(value: Fraction) -> str:
    """One-decimal rendering used for waiting/turnaround averages."""
    return _format(value, 1)


def format_percent(value: Fraction) -> str:
    """Two-decimal rendering used for percentage gains."""
    return _format(value, 2)


def format_quanta(quanta) -> str:
    """The quantum of each cycle, comma-separated."""
    return ",".join(map(str, quanta))

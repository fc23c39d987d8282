"""Reproduction harness: the values the paper publishes, checked against
a re-run of every benchmark case under all seven policies.

The registry stores the published per-case rows, grand totals and
gains verbatim.  Two rows are registered errata, whose published values
contradict the median rule SARR is defined by:

* E1: case III's SARR row uses quantum 120, but the median of the
  remaining bursts is 75;
* E2: case VI's SARR row uses quanta 45,54,16,20, but the median of the
  second cycle's remaining bursts is 62, not 54.

Each also carries its rule-derived row, which is what a rule-faithful
simulation (and the unit-step reference executor) produces.  A cell whose
published value differs from the rule-derived one (an erratum row and the
aggregate cells it feeds) is reported as ``known_erratum`` when the
simulation matches the rule; it does not fail the run.  Any other
disagreement is a ``mismatch`` and makes the exit status nonzero.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .engine import simulate
from .fileio import _indented_json, _json_row_template
from .metrics import (
    ComparisonReport,
    RunMetrics,
    compare_runs,
    compute_metrics,
    format_average,
    format_percent,
    format_quanta,
)
from .policies import POLICY_NAMES, standard_policy
from .workloads import CASE_IDS, NONZERO_ARRIVAL_CASES, ZERO_ARRIVAL_CASES, benchmark_case


class ExpectedRow(NamedTuple):
    """Published reference values for one (case, algorithm) pair."""

    case_id: str
    algorithm: str
    quanta: tuple[int, ...]
    context_switches: int
    avg_waiting: Fraction
    avg_turnaround: Fraction
    erratum: str | None = None            # "E1"/"E2" on a registered erratum
    derived: ExpectedRow | None = None    # the rule-derived row replacing it


def _row(case_id, algorithm, quanta, cs, waiting, turnaround, erratum=None, derived=None):
    return ExpectedRow(case_id, algorithm, tuple(quanta), cs,
                       Fraction(waiting), Fraction(turnaround), erratum, derived)


# the rule-derived rows of errata E1 and E2
_E1 = _row("III", "SARR", (75, 37, 8), 7, "217.8", "299.4")
_E2 = _row("VI", "SARR", (45, 62, 18, 10), 7, "150.8", "210.4")

_EXPECTED = {(r.case_id, r.algorithm): r for r in [
    # case I: zero arrivals, ascending bursts
    _row("I", "RR", (25,), 16, "192", "261.4"),
    _row("I", "DQRRR", (60, 36, 6), 7, "162.2", "231.6"),
    _row("I", "IRRVQ", (40, 15, 5, 30, 12), 14, "165", "234.4"),
    _row("I", "SARR", (60, 36, 6), 7, "119", "188.4"),
    _row("I", "RP5", (25, 50, 100), 11, "167", "236.4"),
    _row("I", "MRR", (62, 25, 25), 8, "124.4", "193.8"),
    _row("I", "DABRR", (69, 27, 6), 7, "120.8", "190.2"),
    # case II: zero arrivals, descending bursts
    _row("II", "RR", (25,), 15, "209.4", "274"),
    _row("II", "DQRRR", (55, 40, 10), 7, "144.8", "209.4"),
    _row("II", "IRRVQ", (35, 8, 12, 30, 20), 14, "142", "206.6"),
    _row("II", "SARR", (55, 40, 10), 7, "185.8", "250.4"),
    _row("II", "RP5", (25, 50, 100), 11, "224.8", "289.4"),
    _row("II", "MRR", (70, 25, 25), 7, "106.8", "171.4"),
    _row("II", "DABRR", (64, 31, 10), 7, "105.6", "170.2"),
    # case III: zero arrivals, random bursts
    _row("III", "RR", (25,), 17, "245.4", "327"),
    _row("III", "DQRRR", (75, 37, 8), 7, "192.8", "274.4"),
    _row("III", "IRRVQ", (48, 12, 15, 30, 15), 14, "193.2", "274.8"),
    _row("III", "SARR", (120,), 4, "177.6", "259.2", "E1", _E1),
    _row("III", "RP5", (25, 50, 100), 11, "237.8", "319.4"),
    _row("III", "MRR", (72, 45, 25), 8, "168.6", "250.2"),
    _row("III", "DABRR", (81, 31, 8), 7, "141.6", "223.2"),
    # case IV: staggered arrivals, ascending bursts
    _row("IV", "RR", (25,), 15, "144.4", "205.6"),
    _row("IV", "DQRRR", (27, 68, 28, 14), 7, "107.2", "168.4"),
    _row("IV", "IRRVQ", (27, 32, 23, 27, 28), 10, "98.2", "159.4"),
    _row("IV", "SARR", (27, 68, 28, 14), 7, "88", "149.2"),
    _row("IV", "RP5", (25, 50, 100), 8, "104.4", "165.6"),
    _row("IV", "MRR", (27, 78, 28, 25), 7, "90", "151.2"),
    _row("IV", "DABRR", (27, 69, 27, 14), 7, "88.2", "149.4"),
    # case V: staggered arrivals, descending bursts
    _row("V", "RR", (25,), 13, "191", "250.8"),
    _row("V", "DQRRR", (95, 51, 16, 8), 7, "138.4", "198.2"),
    _row("V", "IRRVQ", (95, 26, 17, 17, 15), 10, "133.8", "193.6"),
    _row("V", "SARR", (95, 51, 16, 8), 7, "172.4", "232.2"),
    _row("V", "RP5", (25, 50, 100), 8, "197", "256.8"),
    _row("V", "MRR", (95, 49, 25, 25), 7, "124.6", "184.4"),
    _row("V", "DABRR", (95, 51, 16, 8), 7, "125", "184.8"),
    # case VI: staggered arrivals, random bursts
    _row("VI", "RR", (25,), 13, "173.2", "232.8"),
    _row("VI", "DQRRR", (45, 62, 18, 10), 7, "113.6", "173.2"),
    _row("VI", "IRRVQ", (45, 38, 17, 15, 20), 10, "111.4", "171"),
    _row("VI", "SARR", (45, 54, 16, 20), 8, "148.6", "208.2", "E2", _E2),
    _row("VI", "RP5", (25, 50, 100), 8, "149.2", "208.8"),
    _row("VI", "MRR", (45, 52, 35, 25), 8, "116.4", "176"),
    _row("VI", "DABRR", (45, 63, 17, 10), 7, "97.8", "157.4"),
]}

# Published grand totals and percentage gains over all six cases
# (baseline RR); the SARR cells inherit E1 and E2.
PUBLISHED_WAITING_TOTALS = {
    "RR": Fraction("1155.4"), "DQRRR": Fraction("859"), "IRRVQ": Fraction("843.6"),
    "SARR": Fraction("891.4"), "RP5": Fraction("1080.2"), "MRR": Fraction("730.8"),
    "DABRR": Fraction("679"),
}
PUBLISHED_WAITING_GAINS = {
    "RR": Fraction("0"), "DQRRR": Fraction("25.65"), "IRRVQ": Fraction("26.99"),
    "SARR": Fraction("22.85"), "RP5": Fraction("6.51"), "MRR": Fraction("36.75"),
    "DABRR": Fraction("41.23"),
}
PUBLISHED_TURNAROUND_TOTALS = {
    "RR": Fraction("1551.6"), "DQRRR": Fraction("1255.2"), "IRRVQ": Fraction("1239.8"),
    "SARR": Fraction("1287.6"), "RP5": Fraction("1476.4"), "MRR": Fraction("1127"),
    "DABRR": Fraction("1075.2"),
}
PUBLISHED_TURNAROUND_GAINS = {
    "RR": Fraction("0"), "DQRRR": Fraction("19.10"), "IRRVQ": Fraction("20.10"),
    "SARR": Fraction("20.10"), "RP5": Fraction("4.85"), "MRR": Fraction("27.37"),
    "DABRR": Fraction("30.70"),
}


def expected_row(case_id: str, algorithm: str) -> ExpectedRow:
    """Published values for one (case, policy name) cell, errata attached."""
    try:
        return _EXPECTED[(case_id, algorithm)]
    except KeyError:
        raise KeyError(f"no expected row for case {case_id!r}, "
                       f"algorithm {algorithm!r}") from None


MATCH = "match"
MISMATCH = "mismatch"
KNOWN_ERRATUM = "known_erratum"

ZERO_GROUP = "zero_arrival"
NONZERO_GROUP = "nonzero_arrival"
GRAND_GROUP = "grand"


class CellCheck(NamedTuple):
    """Outcome of comparing one table cell."""

    table: str        # e.g. "case III", "group totals", "grand totals"
    algorithm: str
    cell: str         # e.g. "quanta", "avg_waiting", "waiting_gain_pct"
    actual: str
    published: str
    outcome: str      # match / mismatch / known_erratum
    erratum_id: str | None = None


_CELL_JSON_ROW = _json_row_template(CellCheck._fields)  # one object per cell


class ReproductionReport(NamedTuple):
    checks: tuple[CellCheck, ...]

    @property
    def matches(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.checks if c.outcome == MATCH)

    @property
    def mismatches(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.checks if c.outcome == MISMATCH)

    @property
    def known_errata(self) -> tuple[CellCheck, ...]:
        return tuple(c for c in self.checks if c.outcome == KNOWN_ERRATUM)

    @property
    def exit_status(self) -> int:
        return 1 if self.mismatches else 0

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            if c.outcome == MATCH:
                continue
            tag = "ERRATUM" if c.outcome == KNOWN_ERRATUM else "MISMATCH"
            suffix = f" [{c.erratum_id}]" if c.erratum_id else ""
            lines.append(f"{tag}{suffix} {c.table} / {c.algorithm} / {c.cell}: "
                         f"computed {c.actual}, published {c.published}")
        lines.append(
            f"{len(self.matches)} cells match, {len(self.known_errata)} known "
            f"errata, {len(self.mismatches)} mismatches")
        lines.append("REPRODUCTION " + ("OK" if self.exit_status == 0 else "FAILED"))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return _indented_json({
            "cells": iter(tuple(zip(*self.checks))),  # a live zip keeps an iterator per cell
            "summary": {
                "match": len(self.matches),
                "known_erratum": len(self.known_errata),
                "mismatch": len(self.mismatches),
            },
            "exit_status": self.exit_status,
        }, _CELL_JSON_ROW)


def run_case(case_id: str, algorithm: str) -> RunMetrics:
    """Simulate one benchmark case under one policy (benchmark parameters)."""
    return _metrics(benchmark_case(case_id), standard_policy(algorithm))


def _metrics(workload, policy) -> RunMetrics:
    return compute_metrics(simulate(workload, policy), workload)


def _check(table, algorithm, cell, fmt, actual, published, derived, erratum_id):
    """Compare one cell as rendered by ``fmt``.

    The computed value must render as the rule-derived one.  Where that
    renders as published the cell is a match; otherwise the published value
    is an erratum and the cell is a known erratum.
    """
    actual, shown, by_rule = fmt(actual), fmt(published), fmt(derived)
    erratum = by_rule != shown
    outcome = MISMATCH if actual != by_rule else KNOWN_ERRATUM if erratum else MATCH
    return CellCheck(table, algorithm, cell, actual, shown, outcome,
                     erratum_id if erratum else None)


def _row_cells(case_id: str, algorithm: str, run: RunMetrics) -> list[CellCheck]:
    row = expected_row(case_id, algorithm)
    derived = row.derived or row
    table = f"case {case_id}"
    return [_check(table, algorithm, cell, fmt, actual,
                   getattr(row, cell), getattr(derived, cell), row.erratum)
            for cell, actual, fmt in (
                ("quanta", run.quanta(), format_quanta),
                ("context_switches", run.context_switches, str),
                ("avg_waiting", run.avg_waiting, format_average),
                ("avg_turnaround", run.avg_turnaround, format_average))]


_GROUPS = ((ZERO_GROUP, ZERO_ARRIVAL_CASES),
           (NONZERO_GROUP, NONZERO_ARRIVAL_CASES),
           (GRAND_GROUP, CASE_IDS))

# Aggregate cells, each named after the AlgorithmComparison attribute it
# reads, with the formatter its value is compared under.
_FORMATTERS = {
    "context_switch_total": str,
    "waiting_total": format_average,
    "turnaround_total": format_average,
    "waiting_gain_pct": format_percent,
    "turnaround_gain_pct": format_percent,
}
_GROUP_CELLS = ("context_switch_total", "waiting_total", "turnaround_total")
# The grand cells are checked against the paper's own totals and gains,
# since its gains do not all follow from its totals (SARR turnaround:
# 20.10 published, 17.01 from the published totals).
_GRAND_CELLS = {
    "waiting_total": PUBLISHED_WAITING_TOTALS,
    "waiting_gain_pct": PUBLISHED_WAITING_GAINS,
    "turnaround_total": PUBLISHED_TURNAROUND_TOTALS,
    "turnaround_gain_pct": PUBLISHED_TURNAROUND_GAINS,
}


def _run_table(case_ids):
    """Per-case metrics of every policy at its benchmark parameters; each
    case's workload is built once, and each policy."""
    workloads = {c: benchmark_case(c) for c in case_ids}
    return {policy.descriptor: {c: _metrics(w, policy) for c, w in workloads.items()}
            for policy in map(standard_policy, POLICY_NAMES)}


def _group_reports(table) -> dict[str, ComparisonReport]:
    """Zero-arrival, nonzero-arrival and grand reports (RR base) of a
    per-case table of runs, published rows or rule-derived rows."""
    baseline = standard_policy("RR").descriptor
    return {group: compare_runs({d: {c: per_case[c] for c in case_ids}
                                 for d, per_case in table.items()}, baseline, group)
            for group, case_ids in _GROUPS}


def _summary_cells(runs) -> list[CellCheck]:
    """Group totals, grand totals and gains of ``runs`` (all six cases)
    against those of the published and the rule-derived rows."""
    published = {d: {c: expected_row(c, d.name) for c in CASE_IDS} for d in runs}
    derived = {d: {c: row.derived or row for c, row in rows.items()}
               for d, rows in published.items()}
    actual, expected, rule = (_group_reports(t) for t in (runs, published, derived))
    checks = []
    for group, case_ids in _GROUPS:
        table = f"{group} totals"
        cells = _GRAND_CELLS if group == GRAND_GROUP else _GROUP_CELLS
        for got, paper, by_rule in zip(actual[group].entries, expected[group].entries,
                                       rule[group].entries):
            algorithm = got.descriptor.name
            rows = published[got.descriptor]
            eid = ",".join(rows[c].erratum for c in case_ids if rows[c].erratum) or None
            for cell in cells:
                paper_value = (_GRAND_CELLS[cell][algorithm] if group == GRAND_GROUP
                               else getattr(paper, cell))
                checks.append(_check(table, algorithm, cell, _FORMATTERS[cell],
                                     getattr(got, cell), paper_value,
                                     getattr(by_rule, cell), eid))
    return checks


def reproduce_paper(case_ids=None) -> ReproductionReport:
    """Re-run the benchmark and compare every published cell.

    With all six cases selected the group and grand aggregates (and the
    percentage gains against RR) are compared as well.
    """
    selected = tuple(case_ids) if case_ids else CASE_IDS
    for case_id in selected:
        if case_id not in CASE_IDS:
            raise KeyError(f"unknown case {case_id!r}")

    runs = _run_table(selected)
    checks = [check for case_id in selected for d, per_case in runs.items()
              for check in _row_cells(case_id, d.name, per_case[case_id])]
    if set(selected) == set(CASE_IDS):
        checks.extend(_summary_cells(runs))
    return ReproductionReport(tuple(checks))


def comparison_reports() -> dict[str, ComparisonReport]:
    """Zero-arrival, nonzero-arrival and grand comparison reports (RR base)."""
    return _group_reports(_run_table(CASE_IDS))


FIGURE_CSV_HEADER = "figure,algorithm,metric,case_group,value"

_FIGURES = (
    # figure id, metric, source report, per-case attribute (None: one row
    # for the whole group), AlgorithmComparison attribute
    ("fig2", "avg_waiting", ZERO_GROUP, "avg_waiting", "waiting_total"),
    ("fig3", "avg_turnaround", ZERO_GROUP, "avg_turnaround", "turnaround_total"),
    ("fig4", "avg_waiting", NONZERO_GROUP, "avg_waiting", "waiting_total"),
    ("fig5", "avg_turnaround", NONZERO_GROUP, "avg_turnaround", "turnaround_total"),
    ("fig6", "waiting_gain_pct", GRAND_GROUP, None, "waiting_gain_pct"),
    ("fig7", "tat_gain_pct", GRAND_GROUP, None, "turnaround_gain_pct"),
)


def export_figure_data(reports: dict[str, ComparisonReport]) -> bytes:
    """CSV rows sufficient to redraw the six comparison figures.

    ``reports`` must cover the zero-arrival, nonzero-arrival and grand
    groups, as produced by :func:`comparison_reports`.
    """
    for key in (ZERO_GROUP, NONZERO_GROUP, GRAND_GROUP):
        if key not in reports:
            raise KeyError(f"missing comparison report {key!r}")

    lines = [FIGURE_CSV_HEADER]
    for figure, metric, group, case_attr, entry_attr in _FIGURES:
        fmt = _FORMATTERS[entry_attr]
        for entry in reports[group].entries:
            prefix = f"{figure},{entry.descriptor.name},{metric}"
            total = fmt(getattr(entry, entry_attr))
            if case_attr:
                lines.extend([f"{prefix},{c},{fmt(getattr(row, case_attr))}"
                              for c, row in zip(reports[group].case_ids, entry.per_case)])
                lines.append(f"{prefix},total,{total}")
            else:
                lines.append(f"{prefix},{group},{total}")
    return ("\n".join(lines) + "\n").encode("utf-8")

"""Reproduction harness: re-runs every benchmark case under all seven
policies and compares each result cell against the published reference
values.

Cells whose published value contradicts the policy's own rule (the two
registered errata and the aggregate cells they feed) are reported as
``known_erratum`` when the simulation matches the rule-derived value;
they do not fail the run.  Any other disagreement is a ``mismatch`` and
makes the exit status nonzero.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import simulate
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
from .workloads import (
    CASE_IDS,
    NONZERO_ARRIVAL_CASES,
    PUBLISHED_TURNAROUND_GAINS,
    PUBLISHED_TURNAROUND_TOTALS,
    PUBLISHED_WAITING_GAINS,
    PUBLISHED_WAITING_TOTALS,
    ZERO_ARRIVAL_CASES,
    benchmark_case,
    expected_row,
)

MATCH = "match"
MISMATCH = "mismatch"
KNOWN_ERRATUM = "known_erratum"

ZERO_GROUP = "zero_arrival"
NONZERO_GROUP = "nonzero_arrival"
GRAND_GROUP = "grand"


@dataclass(frozen=True)
class CellCheck:
    """Outcome of comparing one table cell."""

    table: str        # e.g. "case III", "group totals", "grand totals"
    algorithm: str
    cell: str         # e.g. "quanta", "avg_waiting", "waiting_gain_pct"
    actual: str
    published: str
    outcome: str      # match / mismatch / known_erratum
    erratum_id: str | None = None


@dataclass(frozen=True)
class ReproductionReport:
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
        payload = {
            "cells": [vars(c) for c in self.checks],
            "summary": {
                "match": len(self.matches),
                "known_erratum": len(self.known_errata),
                "mismatch": len(self.mismatches),
            },
            "exit_status": self.exit_status,
        }
        return json.dumps(payload, indent=2) + "\n"


def run_case(case_id: str, algorithm: str) -> RunMetrics:
    """Simulate one benchmark case under one policy (benchmark parameters)."""
    workload = benchmark_case(case_id)
    trace = simulate(workload, standard_policy(algorithm))
    return compute_metrics(trace, workload)


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
# 20.10 published, 17.01 computed).
_GRAND_CELLS = {
    "waiting_total": PUBLISHED_WAITING_TOTALS,
    "waiting_gain_pct": PUBLISHED_WAITING_GAINS,
    "turnaround_total": PUBLISHED_TURNAROUND_TOTALS,
    "turnaround_gain_pct": PUBLISHED_TURNAROUND_GAINS,
}


def _run_table(case_ids):
    """Per-case metrics of every policy at its benchmark parameters."""
    return {standard_policy(name).descriptor: {c: run_case(c, name) for c in case_ids}
            for name in POLICY_NAMES}


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

import json
from fractions import Fraction

import pytest

from rrsim.metrics import format_average
from rrsim.policies import POLICY_NAMES
from rrsim.reproduce import (
    GRAND_GROUP,
    KNOWN_ERRATUM,
    NONZERO_GROUP,
    ZERO_GROUP,
    comparison_reports,
    expected_row,
    export_figure_data,
    reproduce_paper,
    run_case,
)
from rrsim.workloads import CASE_IDS

# every cell whose published value conflicts with the policy's own rule:
# the two SARR rows plus the aggregate cells they feed
EXPECTED_ERRATUM_CELLS = {
    ("case III", "SARR", "quanta"),
    ("case III", "SARR", "context_switches"),
    ("case III", "SARR", "avg_waiting"),
    ("case III", "SARR", "avg_turnaround"),
    ("case VI", "SARR", "quanta"),
    ("case VI", "SARR", "context_switches"),
    ("case VI", "SARR", "avg_waiting"),
    ("case VI", "SARR", "avg_turnaround"),
    ("zero_arrival totals", "SARR", "context_switch_total"),
    ("zero_arrival totals", "SARR", "waiting_total"),
    ("zero_arrival totals", "SARR", "turnaround_total"),
    ("nonzero_arrival totals", "SARR", "context_switch_total"),
    ("nonzero_arrival totals", "SARR", "waiting_total"),
    ("nonzero_arrival totals", "SARR", "turnaround_total"),
    ("grand totals", "SARR", "waiting_total"),
    ("grand totals", "SARR", "waiting_gain_pct"),
    ("grand totals", "SARR", "turnaround_total"),
    ("grand totals", "SARR", "turnaround_gain_pct"),
}


def test_reproduce_all_cases_has_no_mismatches():
    report = reproduce_paper()
    assert report.mismatches == ()
    assert report.exit_status == 0


def test_reproduce_flags_exactly_the_erratum_cells():
    report = reproduce_paper()
    flagged = {(c.table, c.algorithm, c.cell) for c in report.known_errata}
    assert flagged == EXPECTED_ERRATUM_CELLS
    for check in report.known_errata:
        assert check.erratum_id in ("E1", "E2", "E1,E2")


def test_reproduce_case_subset_checks_only_those_cases():
    report = reproduce_paper(("I",))
    assert report.exit_status == 0
    assert {c.table for c in report.checks} == {"case I"}
    dabrr = [c for c in report.checks if c.algorithm == "DABRR"]
    values = {c.cell: c.actual for c in dabrr}
    assert values == {"quanta": "69,27,6", "context_switches": "7",
                      "avg_waiting": "120.8", "avg_turnaround": "190.2"}


def test_reproduce_case_iv_all_rows_match():
    report = reproduce_paper(("IV",))
    assert report.mismatches == () and report.known_errata == ()
    assert len(report.matches) == 7 * 4


def test_reproduce_rejects_unknown_case():
    with pytest.raises(KeyError):
        reproduce_paper(("IX",))


def test_report_renderings():
    report = reproduce_paper()
    text = report.render_text()
    assert "REPRODUCTION OK" in text
    assert "ERRATUM" in text
    assert "0 mismatches" in text
    payload = json.loads(report.render_json())
    assert payload["exit_status"] == 0
    assert payload["summary"]["mismatch"] == 0
    assert payload["summary"]["known_erratum"] == len(EXPECTED_ERRATUM_CELLS)


def test_run_case_single_row():
    m = run_case("V", "MRR")
    assert m.quanta() == (95, 49, 25, 25)
    assert format_average(m.avg_waiting) == "124.6"


def test_comparison_reports_group_totals():
    reports = comparison_reports()
    zero = reports[ZERO_GROUP]
    nonzero = reports[NONZERO_GROUP]
    grand = reports[GRAND_GROUP]
    by_name = {e.descriptor.name: e for e in zero.entries}
    assert format_average(by_name["RR"].waiting_total) == "646.8"
    assert format_average(by_name["DABRR"].waiting_total) == "368.0"
    assert by_name["DABRR"].context_switch_total == 21
    by_name = {e.descriptor.name: e for e in nonzero.entries}
    assert format_average(by_name["MRR"].turnaround_total) == "511.6"
    by_name = {e.descriptor.name: e for e in grand.entries}
    assert format_average(by_name["IRRVQ"].waiting_total) == "843.6"


def test_export_figure_rows():
    data = export_figure_data(comparison_reports()).decode()
    lines = data.splitlines()
    assert lines[0] == "figure,algorithm,metric,case_group,value"
    assert "fig6,DABRR,waiting_gain_pct,grand,41.23" in lines
    assert "fig7,RP5,tat_gain_pct,grand,4.85" in lines
    assert "fig6,RR,waiting_gain_pct,grand,0.00" in lines
    assert "fig2,RR,avg_waiting,I,192.0" in lines
    assert "fig2,DABRR,avg_waiting,total,368.0" in lines
    assert "fig5,DABRR,avg_turnaround,total,491.6" in lines
    # every figure is covered
    figures = {line.split(",")[0] for line in lines[1:]}
    assert figures == {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}


def test_export_figure_data_requires_all_groups():
    reports = comparison_reports()
    del reports[GRAND_GROUP]
    with pytest.raises(KeyError):
        export_figure_data(reports)


def test_expected_row_lookup():
    row = expected_row("II", "MRR")
    assert row.quanta == (70, 25, 25)
    assert row.context_switches == 7
    assert row.avg_waiting == Fraction("106.8")
    assert row.avg_turnaround == Fraction("171.4")
    assert row.erratum is None and row.derived is None

    row = expected_row("V", "DQRRR")
    assert row.quanta == (95, 51, 16, 8)
    assert row.avg_turnaround == Fraction("198.2")


def test_expected_row_errata_payloads():
    e1 = expected_row("III", "SARR")
    assert e1.quanta == (120,)
    assert e1.context_switches == 4
    assert e1.avg_waiting == Fraction("177.6")
    assert e1.erratum == "E1"
    assert e1.derived.quanta == (75, 37, 8)
    assert e1.derived.context_switches == 7

    e2 = expected_row("VI", "SARR")
    assert e2.erratum == "E2"
    assert e2.quanta == (45, 54, 16, 20)
    assert e2.derived.quanta == (45, 62, 18, 10)

    rows = [expected_row(c, name) for c in CASE_IDS for name in POLICY_NAMES]
    errata = [(r.case_id, r.algorithm) for r in rows if r.erratum]
    assert errata == [("III", "SARR"), ("VI", "SARR")]


def test_expected_rows_cover_all_seven_policies():
    for case_id in CASE_IDS:
        rows = [expected_row(case_id, name) for name in POLICY_NAMES]
        assert [r.algorithm for r in rows] == list(POLICY_NAMES)

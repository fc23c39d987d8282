import random
import re

import pytest
from reference_gantt import render_gantt as reference_gantt

from rrsim import simulate, validate_workload
from rrsim.gantt import render_gantt
from rrsim.policies import POLICY_NAMES, make_round_robin, parse_policy_spec, standard_policy
from rrsim.workloads import CASE_IDS, benchmark_case

WIDTHS = (40, 41, 47, 55, 60, 72, 80, 100, 120)
POLICIES = tuple((name, standard_policy(name)) for name in POLICY_NAMES) + (
    ("rr:q=3", parse_policy_spec("rr:q=3")),)


def _cells(text):
    """(label, end) pairs in render order."""
    cells = []
    lines = text.splitlines()
    for top, bottom in zip(lines, lines[1:]):
        if not top.startswith("|"):
            continue
        labels = [part.strip() for part in top.strip("|").split("|")]
        ends = re.findall(r"\d+", bottom)[1:]  # first number is the row start
        cells.extend(zip(labels, (int(e) for e in ends)))
    return cells


def test_dqrrr_case_iii_cells_match_published_chart():
    w = benchmark_case("III")
    trace = simulate(w, standard_policy("DQRRR"))
    chart = render_gantt(trace, width=120)
    assert _cells(chart) == [
        ("P4", 48), ("P3", 123), ("P2", 183), ("P1", 258), ("P5", 333),
        ("P3", 370), ("P1", 400), ("P3", 408)]
    assert "cycle 1  <- quantum 75 ->" in chart
    assert "cycle 2  <- quantum 37 ->" in chart
    assert "cycle 3  <- quantum 8 ->" in chart


def test_end_labels_follow_slice_ends_for_every_policy():
    w = benchmark_case("V")
    for name in ("RR", "DQRRR", "IRRVQ", "SARR", "RP5", "MRR", "DABRR"):
        trace = simulate(w, standard_policy(name))
        labels = [(l, e) for l, e in _cells(render_gantt(trace)) if l != "--"]
        assert labels == [(s.pid, s.end) for s in trace.slices]


def test_single_slice_chart():
    w = validate_workload([("P1", 0, 42)])
    trace = simulate(w, standard_policy("DABRR"))
    chart = render_gantt(trace)
    assert _cells(chart) == [("P1", 42)]


def test_idle_gap_renders_as_dashes():
    w = validate_workload([("P1", 0, 10), ("P2", 50, 10)])
    trace = simulate(w, make_round_robin(25))
    chart = render_gantt(trace)
    assert ("--", 50) in _cells(chart)
    assert "idle" in chart


def test_rows_respect_width():
    oversize = "P" + "x" * 90  # wider than a whole row at widths 40 and 60
    traces = (
        simulate(benchmark_case("I"), make_round_robin(5)),  # long trace forces wrapping
        simulate(validate_workload([("P1", 0, 30), (oversize, 0, 30), ("P3", 10, 30)]),
                 make_round_robin(25)),
    )
    for trace in traces:
        for width in (40, 60, 100):
            chart = render_gantt(trace, width=width)
            lines = chart.splitlines()
            for i, line in enumerate(lines):
                if len(line) > width:  # only the row of a lone oversize cell may overflow
                    assert f"| {oversize} |" in (line, lines[i - 1]), (width, line)
            labels = [(l, e) for l, e in _cells(chart) if l != "--"]
            assert labels == [(s.pid, s.end) for s in trace.slices]


def test_width_below_minimum_rejected():
    trace = simulate(benchmark_case("I"), standard_policy("DABRR"))
    with pytest.raises(ValueError):
        render_gantt(trace, width=39)


def _gantt_workload(seed):
    """Random workload whose charts hold idle gaps, 2- to 5-digit times
    and, in about a third of the seeds, 15-26 character pids."""
    rng = random.Random(seed)
    long_pids = rng.random() < 0.35
    clock = rng.randrange(rng.choice((100, 3000, 12000)))
    records = []
    for i in range(rng.randint(1, 8)):
        pid = f"proc-{i + 1}-" + "x" * rng.randint(8, 18) if long_pids else f"P{i + 1}"
        records.append((pid, clock, rng.randint(1, 120)))
        clock += rng.choice((0, rng.randint(1, 50), rng.randint(1, 2000)))
    return validate_workload(records)


def _assert_same_charts(source, workload):
    for name, policy in POLICIES:
        trace = simulate(workload, policy)
        for width in WIDTHS:
            got = render_gantt(trace, width).splitlines()
            want = reference_gantt(trace, width).splitlines()
            first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                         min(len(got), len(want)))
            assert got == want, (f"{name} on {source} at width {width}, line {first + 1}: "
                                 f"{got[first:first + 1]} vs reference {want[first:first + 1]}")


def test_one_pass_renderer_matches_reference_on_fixtures():
    for case_id in CASE_IDS + ("ILL",):
        _assert_same_charts(f"case {case_id}", benchmark_case(case_id))


def test_one_pass_renderer_matches_reference_on_seeded_workloads():
    idle = long_pid = four_digit_end = 0
    for seed in range(200):
        workload = _gantt_workload(seed)
        trace = simulate(workload, standard_policy("RR"))
        idle += bool(trace.idles)
        long_pid += any(len(p.pid) >= 15 for p in workload)
        four_digit_end += trace.end_time() >= 1000
        _assert_same_charts(f"seed {seed}", workload)
    assert min(idle, long_pid, four_digit_end) >= 50, (idle, long_pid, four_digit_end)

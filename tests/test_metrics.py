import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import completion_times, seeded_workload
from reference_format import format_decimal
from test_engine import CHECKER_MUTATIONS, built_or_refused

from rrsim import (
    InconsistentTrace,
    MismatchedCaseSets,
    ProcessMetrics,
    RunMetrics,
    compare_runs,
    compute_metrics,
    simulate,
    validate_workload,
)
from rrsim.engine import _walk_trace
from rrsim.metrics import PROCESS_COLUMNS, format_average, format_percent
from rrsim.policies import POLICY_NAMES, make_dabrr, make_round_robin, standard_policy
from rrsim.workloads import CASE_IDS, benchmark_case


def _run(case_id, name):
    w = benchmark_case(case_id)
    trace = simulate(w, standard_policy(name))
    return compute_metrics(trace, w)


def test_rr_case_i_averages():
    m = _run("I", "RR")
    assert m.avg_waiting == 192
    assert m.avg_turnaround == Fraction("261.4")
    assert m.context_switches == 16


def test_dabrr_illustration_averages():
    m = _run("ILL", "DABRR")
    assert m.avg_turnaround == 106
    assert m.avg_waiting == Fraction("60.8")


def test_single_process_metrics_are_trivial():
    w = validate_workload([("P1", 5, 10)])
    m = compute_metrics(simulate(w, make_dabrr()), w)
    p = m.per_process[0]
    assert (p.turnaround, p.waiting, p.response) == (10, 0, 0)
    assert m.makespan == 10
    assert m.cpu_utilization == 100


def test_context_switch_rule_counts_same_pid_expiry():
    w = benchmark_case("I")
    rr_trace = simulate(w, make_round_robin(25))
    assert compute_metrics(rr_trace, w).context_switches == 16      # 17 slices
    dabrr_trace = simulate(w, make_dabrr())
    assert compute_metrics(dabrr_trace, w).context_switches == 7    # 8 slices, P5 back to back
    one = validate_workload([("P1", 0, 9)])
    assert compute_metrics(simulate(one, make_dabrr()), one).context_switches == 0


def test_compute_metrics_rejects_inconsistent_trace():
    w = benchmark_case("I")
    trace = simulate(w, make_dabrr())
    tampered = dataclasses.replace(
        trace, slices=trace.slices[:-1])
    with pytest.raises(InconsistentTrace):
        compute_metrics(tampered, w)


def test_metrics_agree_with_the_listed_slices():
    # compute_metrics reads completion and first dispatch off the checker's
    # time-ordered walk; both must match what the listed slices say
    workloads = ([benchmark_case(c) for c in CASE_IDS + ("ILL",)]
                 + [seeded_workload(seed) for seed in range(200)])
    for w in workloads:
        for name in POLICY_NAMES:
            trace = simulate(w, standard_policy(name))
            m = compute_metrics(trace, w)
            first_start = {}
            for s in trace.slices:
                first_start.setdefault(s.pid, s.start)
            assert {p.pid: p.completion for p in m.per_process} == completion_times(trace)
            assert [p.response for p in m.per_process] == [
                first_start[p.pid] - p.arrival for p in w], (w.label, name)


def test_compute_metrics_rejects_every_checker_mutation():
    # the same seeds and mutations as the checker's seeded sweep in test_engine
    applied = Counter()
    for seed in range(1000):
        rng = random.Random(seed)
        workload = seeded_workload(seed)
        trace = simulate(workload, standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)]))
        for mutate, _ in CHECKER_MUTATIONS:
            slices = mutate(trace, rng)
            if slices is None:
                continue
            bad = built_or_refused(trace, slices)  # a refused list makes no trace to measure
            if bad is None:
                continue
            applied[mutate] += 1
            with pytest.raises(InconsistentTrace):
                compute_metrics(bad, workload)
    assert set(applied) == {mutate for mutate, violation in CHECKER_MUTATIONS if violation}
    assert sum(applied.values()) >= 3000


def _rows_per_process(trace, workload):
    """The rows and averages as the per-process loop built them before the
    rows were built column by column; the loop is kept as it was, except
    that it reads the walk's completion and first-dispatch lists by each
    process's submission index ``k``."""
    _, completion, first_dispatch = _walk_trace(trace, workload)
    rows = []
    for k, p in enumerate(workload.processes):
        turnaround = completion[k] - p.arrival
        rows.append(ProcessMetrics(p.pid, p.arrival, p.burst, completion[k], turnaround,
                                   waiting=turnaround - p.burst,
                                   response=first_dispatch[k] - p.arrival))

    n = len(rows)
    return (tuple(rows),
            Fraction(sum(r.waiting for r in rows), n),
            Fraction(sum(r.turnaround for r in rows), n),
            Fraction(sum(r.response for r in rows), n))


def test_columnar_rows_equal_the_per_process_loop():
    for seed in range(200):
        workload = seeded_workload(seed)
        for name in POLICY_NAMES:
            trace = simulate(workload, standard_policy(name))
            m = compute_metrics(trace, workload)
            assert all(type(r) is ProcessMetrics for r in m.per_process), (seed, name)
            assert (m.per_process, m.avg_waiting, m.avg_turnaround, m.avg_response) \
                == _rows_per_process(trace, workload), (seed, name)


def test_run_metrics_store_columns_and_derive_the_rows():
    assert "columns" in RunMetrics._fields and "per_process" not in RunMetrics._fields
    for seed in range(100):
        workload = seeded_workload(seed)
        for name in POLICY_NAMES:
            m = compute_metrics(simulate(workload, standard_policy(name)), workload)
            assert len(m.columns) == len(PROCESS_COLUMNS), (seed, name)
            assert tuple(map(tuple, m.columns)) == tuple(map(tuple, zip(*m.per_process))), \
                (seed, name)
            assert m.columns[:3] == workload.columns, (seed, name)
    with pytest.raises(AttributeError):
        m.per_process = ()


def test_waiting_is_turnaround_minus_burst_everywhere():
    for case_id in ("I", "II", "III", "IV", "V", "VI"):
        for name in ("RR", "SARR", "DABRR"):
            m = _run(case_id, name)
            for p in m.per_process:
                assert p.waiting == p.turnaround - p.burst
                assert 0 <= p.response <= p.waiting
            assert m.avg_waiting == Fraction(
                sum(p.waiting for p in m.per_process), len(m.per_process))


def test_zero_arrival_cases_have_full_utilization():
    for case_id in ("I", "II", "III"):
        m = _run(case_id, "RR")
        assert m.cpu_utilization == 100


def test_makespan_measured_from_first_arrival():
    w = validate_workload([("P1", 100, 10), ("P2", 105, 10)])
    m = compute_metrics(simulate(w, make_round_robin(25)), w)
    assert m.makespan == 20
    assert m.cpu_utilization == 100


def test_utilization_drops_with_idle_gaps():
    w = validate_workload([("P1", 0, 10), ("P2", 50, 10)])
    m = compute_metrics(simulate(w, make_round_robin(25)), w)
    assert m.makespan == 60
    assert m.cpu_utilization == Fraction(2000, 60)


def _grand_runs():
    cases = ("I", "II", "III", "IV", "V", "VI")
    runs = {}
    for name in ("RR", "DQRRR", "IRRVQ", "RP5", "MRR", "DABRR"):
        descriptor = standard_policy(name).descriptor
        runs[descriptor] = {case_id: _run(case_id, name) for case_id in cases}
    return runs


def test_compare_runs_reproduces_published_gains():
    runs = _grand_runs()
    baseline = standard_policy("RR").descriptor
    report = compare_runs(runs, baseline, label="grand")
    by_name = {e.descriptor.name: e for e in report.entries}

    assert by_name["RR"].waiting_total == Fraction("1155.4")
    assert by_name["DABRR"].waiting_total == Fraction("679")
    assert format_percent(by_name["DABRR"].waiting_gain_pct) == "41.23"
    assert format_percent(by_name["MRR"].turnaround_gain_pct) == "27.37"
    assert format_percent(by_name["RP5"].turnaround_gain_pct) == "4.85"
    assert by_name["RR"].waiting_gain_pct == 0
    assert by_name["RR"].turnaround_gain_pct == 0


def test_compare_runs_entries_keep_the_rows_they_were_given():
    runs = _grand_runs()
    # a case order other than sorted, so that the report's order shows
    runs = {d: {c: per_case[c] for c in ("VI", "I", "III")} for d, per_case in runs.items()}
    report = compare_runs(runs, standard_policy("RR").descriptor)
    assert report.case_ids == ("VI", "I", "III")
    for entry in report.entries:
        rows = runs[entry.descriptor]
        assert all(got is rows[c] for got, c in zip(entry.per_case, report.case_ids, strict=True))


def test_compare_runs_rejects_mismatched_case_sets():
    runs = _grand_runs()
    baseline = standard_policy("RR").descriptor
    crippled = dict(runs)
    victim = standard_policy("DABRR").descriptor
    crippled[victim] = {k: v for k, v in runs[victim].items() if k != "VI"}
    with pytest.raises(MismatchedCaseSets):
        compare_runs(crippled, baseline)
    with pytest.raises(MismatchedCaseSets):
        compare_runs({victim: runs[victim]}, baseline)


@pytest.mark.parametrize("records", [
    [("P1", 0, 40)],
    [("A", 0, 10), ("B", 50, 20)],
], ids=["single process", "no overlap"])
def test_compare_runs_gains_are_zero_when_the_baseline_never_waits(records):
    w = validate_workload(records)
    runs = {standard_policy(name).descriptor: {"w": compute_metrics(
                simulate(w, standard_policy(name)), w)}
            for name in POLICY_NAMES}
    report = compare_runs(runs, standard_policy("DABRR").descriptor)
    for entry in report.entries:
        assert entry.waiting_total == 0
        assert entry.waiting_gain_pct == 0
        assert entry.turnaround_gain_pct == 0


def test_format_average_renders_one_decimal():
    assert format_average(Fraction(192)) == "192.0"
    assert format_average(Fraction("261.4")) == "261.4"
    assert format_average(Fraction("60.8")) == "60.8"


def test_format_percent_rounds_half_up_to_two_decimals():
    assert format_percent(Fraction(1559, 5777) * 100) == "26.99"
    assert format_percent(Fraction(2382, 5777) * 100) == "41.23"
    assert format_percent(Fraction(0)) == "0.00"
    assert format_percent(Fraction(-1, 8)) == "-0.13"
    assert format_percent(Fraction("2.345")) == "2.35"


def _format_cases():
    """Random fractions, exact halves at one and two decimals, and edge values."""
    rng = random.Random(2016)
    yield from (Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 2000))
                for _ in range(20_000))
    yield from (Fraction(k, 2 * 10**d) for d in (1, 2) for k in range(-3000, 3000))
    yield from (Fraction(0), Fraction(-1, 1000), Fraction(-5, 100), Fraction(-1, 20),
                Fraction(-1, 200), Fraction(10**30, 3))


def test_integer_formatting_matches_fraction_reference():
    count = 0
    for value in _format_cases():
        for digits, fmt in ((1, format_average), (2, format_percent)):
            assert fmt(value) == format_decimal(value, digits), (value, digits)
            count += 1
    assert count == 64_012

"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import json
import subprocess
import sys
from fractions import Fraction

from conftest import completion_times, first_divergence, seeded_workload
from reference_executor import unit_step_completions

from rrsim import simulate, trace_violations, validate_workload
from rrsim.fileio import CSV, JSON, parse_workload, serialize_workload
from rrsim.metrics import compute_metrics, context_switches, format_percent
from rrsim.model import COMPLETED
from rrsim.policies import POLICY_NAMES, make_round_robin, standard_policy
from rrsim.workloads import (
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

BENCH_PARAMS = {"RR": {"q": 25}, "RP5": {"base": 25}, "MRR": {"floor": 25}}
NON_SARR = tuple(n for n in POLICY_NAMES if n != "SARR")


def _verdict(number, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"criterion {number} [{label}]: {status}")
    assert not failures, f"criterion {number} ({label}): " + " | ".join(failures[:10])


def _metrics(case_id, name):
    workload = benchmark_case(case_id)
    trace = simulate(workload, standard_policy(name))
    return compute_metrics(trace, workload)


def test_criterion_1_per_case_golden_rows():
    failures = []
    erratum_rows = 0
    for case_id in CASE_IDS:
        for name in POLICY_NAMES:
            run = _metrics(case_id, name)
            row = expected_row(case_id, name)
            if row.erratum is None:
                expected = row
            else:
                erratum_rows += 1
                if row.erratum not in ("E1", "E2"):
                    failures.append(f"{case_id}/{name}: unexpected erratum id")
                expected = row.derived  # rule-derived values attached
            got = (run.quanta(), run.context_switches,
                   run.avg_waiting, run.avg_turnaround)
            want = (expected.quanta, expected.context_switches,
                    expected.avg_waiting, expected.avg_turnaround)
            if got != want:
                failures.append(f"{case_id}/{name}: {got} != {want}")
    if erratum_rows != 2:
        failures.append(f"expected exactly 2 erratum rows, saw {erratum_rows}")
    _verdict(1, "42 per-case golden rows, zero tolerance", failures)


def test_criterion_2_illustration_walkthrough():
    failures = []
    run = _metrics("ILL", "DABRR")
    checks = [
        ("quanta", run.quanta(), (45, 30, 27)),
        ("turnarounds", tuple(p.turnaround for p in run.per_process),
         (15, 76, 226, 169, 44)),
        ("waits", tuple(p.waiting for p in run.per_process),
         (0, 44, 124, 121, 15)),
        ("avg turnaround", run.avg_turnaround, Fraction(106)),
        ("avg waiting", run.avg_waiting, Fraction("60.8")),
    ]
    failures = [f"{label}: {got} != {want}" for label, got, want in checks
                if got != want]
    _verdict(2, "DABRR illustration workload", failures)


def test_criterion_3_aggregate_tables_and_gains():
    failures = []
    runs = {name: {case_id: _metrics(case_id, name) for case_id in CASE_IDS}
            for name in POLICY_NAMES}

    # group tables: per-case cells and totals for every non-SARR algorithm
    for group_cases in (ZERO_ARRIVAL_CASES, NONZERO_ARRIVAL_CASES):
        for name in NON_SARR:
            for case_id in group_cases:
                run, row = runs[name][case_id], expected_row(case_id, name)
                cells = [
                    ("cs", run.context_switches, row.context_switches),
                    ("wait", run.avg_waiting, row.avg_waiting),
                    ("tat", run.avg_turnaround, row.avg_turnaround),
                ]
                failures += [f"{name}/{case_id} {label}: {got} != {want}"
                             for label, got, want in cells if got != want]
            totals = (
                sum(runs[name][c].context_switches for c in group_cases),
                sum((runs[name][c].avg_waiting for c in group_cases), Fraction(0)),
                sum((runs[name][c].avg_turnaround for c in group_cases), Fraction(0)),
            )
            expected_totals = (
                sum(expected_row(c, name).context_switches for c in group_cases),
                sum((expected_row(c, name).avg_waiting for c in group_cases),
                    Fraction(0)),
                sum((expected_row(c, name).avg_turnaround for c in group_cases),
                    Fraction(0)),
            )
            if totals != expected_totals:
                failures.append(
                    f"{name} totals over {group_cases}: {totals} != {expected_totals}")

    # grand totals and two-decimal gains for the six non-SARR algorithms
    base_wait = sum((runs["RR"][c].avg_waiting for c in CASE_IDS), Fraction(0))
    base_tat = sum((runs["RR"][c].avg_turnaround for c in CASE_IDS), Fraction(0))
    for name in NON_SARR:
        wait = sum((runs[name][c].avg_waiting for c in CASE_IDS), Fraction(0))
        tat = sum((runs[name][c].avg_turnaround for c in CASE_IDS), Fraction(0))
        if wait != PUBLISHED_WAITING_TOTALS[name]:
            failures.append(f"{name} grand waiting {wait}")
        if tat != PUBLISHED_TURNAROUND_TOTALS[name]:
            failures.append(f"{name} grand turnaround {tat}")
        wait_gain = format_percent((base_wait - wait) / base_wait * 100)
        tat_gain = format_percent((base_tat - tat) / base_tat * 100)
        if wait_gain != format_percent(PUBLISHED_WAITING_GAINS[name]):
            failures.append(f"{name} waiting gain {wait_gain}")
        if tat_gain != format_percent(PUBLISHED_TURNAROUND_GAINS[name]):
            failures.append(f"{name} turnaround gain {tat_gain}")

    dabrr_wait_gain = format_percent((base_wait - PUBLISHED_WAITING_TOTALS["DABRR"])
                                     / base_wait * 100)
    if dabrr_wait_gain != "41.23":
        failures.append(f"DABRR waiting gain {dabrr_wait_gain} != 41.23")
    dabrr_tat_gain = format_percent((base_tat - PUBLISHED_TURNAROUND_TOTALS["DABRR"])
                                    / base_tat * 100)
    if dabrr_tat_gain != "30.70":
        failures.append(f"DABRR turnaround gain {dabrr_tat_gain} != 30.70")

    _verdict(3, "aggregate tables and percentage gains", failures)


def test_criterion_4_unit_step_oracle_equivalence():
    failures = []

    def check(workload, what):
        for name in POLICY_NAMES:
            trace = simulate(workload, standard_policy(name))
            reference = unit_step_completions(workload, name, BENCH_PARAMS.get(name))
            divergence = first_divergence(completion_times(trace), reference)
            if divergence:
                failures.append(f"{name} disagrees on {what}: {divergence}")

    for case_id in CASE_IDS + ("ILL",):
        check(benchmark_case(case_id), f"case {case_id}")
    for seed in range(1000):
        check(seeded_workload(seed, max_n=12, max_burst=200), f"seed {seed}")
        if len(failures) > 20:
            break
    _verdict(4, "unit-step oracle, 7 fixtures + 1000 random workloads", failures)


def test_criterion_5_fuzzed_invariants():
    failures = []

    # invariant sweep over 10^4 generated workloads, policies round robin
    for seed in range(10_000):
        workload = seeded_workload(seed)
        name = POLICY_NAMES[seed % len(POLICY_NAMES)]
        trace = simulate(workload, standard_policy(name))
        problems = trace_violations(trace, workload)  # conservation, overlap,
        # contiguity, work conservation, arrival respect, quantum log sanity
        if problems:
            failures.append(f"seed {seed} {name}: {problems[:3]}")
        if context_switches(trace) != len(trace.slices) - 1:
            failures.append(f"seed {seed} {name}: context switch rule")
        if name == "IRRVQ" and len(trace.quantum_log) > len(workload):
            failures.append(f"seed {seed}: IRRVQ ran {len(trace.quantum_log)} cycles")
        if len(failures) > 20:
            break

    # determinism: bit-identical repeat runs
    for seed in range(0, 10_000, 20):
        workload = seeded_workload(seed)
        name = POLICY_NAMES[(seed // 20) % len(POLICY_NAMES)]
        policy = standard_policy(name)
        if simulate(workload, policy) != simulate(workload, policy):
            failures.append(f"seed {seed} {name}: nondeterministic")

    # single-process completion for every policy
    for seed in range(50):
        workload = seeded_workload(seed * 31 + 7, max_n=1)
        proc = workload.processes[0]
        for name in POLICY_NAMES:
            trace = simulate(workload, standard_policy(name))
            if completion_times(trace) != {proc.pid: proc.arrival + proc.burst}:
                failures.append(f"single process seed {seed} {name}")

    # RR with quantum >= max burst reduces to FCFS on zero-arrival workloads
    for seed in range(300):
        workload = seeded_workload(seed * 17 + 3)
        if workload.min_arrival() != 0 or any(p.arrival for p in workload):
            workload = validate_workload(
                [(p.pid, 0, p.burst) for p in workload], label=workload.label)
        trace = simulate(workload, make_round_robin(max(p.burst for p in workload)))
        if [s.pid for s in trace.slices] != list(workload.pids()):
            failures.append(f"FCFS reduction order, seed {seed}")
        if not all(s.termination == COMPLETED for s in trace.slices):
            failures.append(f"FCFS reduction split slice, seed {seed}")

    _verdict(5, "property fuzz over >=10^4 generated workloads", failures)


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "rrsim", *args],
                          capture_output=True, text=True)


def test_criterion_6_cli_contract():
    failures = []

    proc = _cli("reproduce-paper", "--cases", "all", "--format", "json")
    if proc.returncode != 0:
        failures.append(f"reproduce-paper exited {proc.returncode}")
    else:
        payload = json.loads(proc.stdout)
        flagged = {(c["table"], c["cell"]) for c in payload["cells"]
                   if c["outcome"] == "known_erratum"}
        sarr_only = all(c["algorithm"] == "SARR" for c in payload["cells"]
                        if c["outcome"] == "known_erratum")
        expected_flagged = {
            ("case III", "quanta"), ("case III", "context_switches"),
            ("case III", "avg_waiting"), ("case III", "avg_turnaround"),
            ("case VI", "quanta"), ("case VI", "context_switches"),
            ("case VI", "avg_waiting"), ("case VI", "avg_turnaround"),
            ("zero_arrival totals", "context_switch_total"),
            ("zero_arrival totals", "waiting_total"),
            ("zero_arrival totals", "turnaround_total"),
            ("nonzero_arrival totals", "context_switch_total"),
            ("nonzero_arrival totals", "waiting_total"),
            ("nonzero_arrival totals", "turnaround_total"),
            ("grand totals", "waiting_total"),
            ("grand totals", "waiting_gain_pct"),
            ("grand totals", "turnaround_total"),
            ("grand totals", "turnaround_gain_pct"),
        }
        if payload["summary"]["mismatch"] != 0:
            failures.append(f"mismatches: {payload['summary']['mismatch']}")
        if not sarr_only:
            failures.append("a non-SARR cell was flagged as erratum")
        if flagged != expected_flagged:
            failures.append(f"flagged cells {sorted(flagged)} != expected")

    # workload round trips are byte-stable after one normalization pass
    messy_csv = "pid,arrival_ms,burst_ms\r\nP1, 0, 40\r\nP2,0,55\n"
    once = serialize_workload(parse_workload(messy_csv, CSV), CSV)
    twice = serialize_workload(parse_workload(once, CSV), CSV)
    if once != twice:
        failures.append("CSV round trip not byte-stable")

    messy_json = '{"processes": [{"pid":"P1","arrival_ms":0,"burst_ms":40}],\n "label": "x"}'
    once = serialize_workload(parse_workload(messy_json, JSON), JSON)
    twice = serialize_workload(parse_workload(once, JSON), JSON)
    if once != twice:
        failures.append("JSON round trip not byte-stable")

    _verdict(6, "CLI reproduce-paper exit code and round-trip stability", failures)


def test_every_benchmark_trace_passes_replay_check():
    # not a numbered criterion, but ties the suite together end to end
    for case_id in CASE_IDS + ("ILL",):
        workload = benchmark_case(case_id)
        for name in POLICY_NAMES:
            assert trace_violations(simulate(workload, standard_policy(name)), workload) == []

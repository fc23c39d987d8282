"""Differential tests: the slice-level engine against the independent
unit-step reference executor."""
from fractions import Fraction

import pytest
from conftest import completion_times, first_divergence, seeded_workload
from reference_executor import unit_step_completions

from rrsim import simulate, validate_workload
from rrsim.policies import POLICY_NAMES, standard_policy
from rrsim.reproduce import expected_row
from rrsim.workloads import CASE_IDS, benchmark_case

BENCH_PARAMS = {"RR": {"q": 25}, "RP5": {"base": 25}, "MRR": {"floor": 25}}


def _divergence(workload, name):
    trace = simulate(workload, standard_policy(name))
    reference = unit_step_completions(workload, name, BENCH_PARAMS.get(name))
    return first_divergence(completion_times(trace), reference)


@pytest.mark.parametrize("case_id", CASE_IDS + ("ILL",))
@pytest.mark.parametrize("name", POLICY_NAMES)
def test_engine_matches_oracle_on_fixtures(case_id, name):
    divergence = _divergence(benchmark_case(case_id), name)
    assert divergence is None, f"{name} on case {case_id}: {divergence}"


# DQRRR's alternating cycle 3 leaves P6 and then P4 with 3 ms each, and P7
# arrives during it.  Arrival cycle 4 must break that tie by arrival (P4
# first), i.e. by the full ``rank_order``, not by remaining time alone.
TIED_SURVIVORS = validate_workload([
    ("P1", 10, 20), ("P2", 11, 20), ("P3", 29, 10), ("P4", 34, 10),
    ("P5", 37, 5), ("P6", 40, 10), ("P7", 65, 10)])


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_engine_matches_oracle_on_tied_survivors_meeting_arrivals(name):
    divergence = _divergence(TIED_SURVIVORS, name)
    assert divergence is None, f"{name}: {divergence}"


def test_engine_matches_oracle_on_random_workloads():
    for seed in range(200):
        workload = seeded_workload(seed)
        for name in POLICY_NAMES:
            divergence = _divergence(workload, name)
            assert divergence is None, f"{name} on seed {seed} ({workload.label}): {divergence}"


def _oracle_metrics(case_id):
    """Averages computed purely from oracle completions."""
    workload = benchmark_case(case_id)
    completions = unit_step_completions(workload, "SARR")
    turnarounds = [completions[p.pid] - p.arrival for p in workload]
    waits = [t - p.burst for t, p in zip(turnarounds, workload)]
    n = len(turnarounds)
    return Fraction(sum(waits), n), Fraction(sum(turnarounds), n)


def test_sarr_erratum_derived_values_confirmed_by_oracle():
    # the registry's rule-derived E1/E2 numbers come from this executor
    wait, turnaround = _oracle_metrics("III")
    derived = expected_row("III", "SARR").derived
    assert (wait, turnaround) == (derived.avg_waiting, derived.avg_turnaround)
    assert (wait, turnaround) == (Fraction("217.8"), Fraction("299.4"))

    wait, turnaround = _oracle_metrics("VI")
    derived = expected_row("VI", "SARR").derived
    assert (wait, turnaround) == (derived.avg_waiting, derived.avg_turnaround)
    assert (wait, turnaround) == (Fraction("150.8"), Fraction("210.4"))

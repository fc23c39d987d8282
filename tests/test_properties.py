"""Fuzzed engine invariants over generated workloads.

The full-scale sweep (10^4 workloads) lives in the acceptance suite;
these runs are sized for the development loop.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import completion_times, seeded_workload

from rrsim import simulate, trace_violations, validate_workload
from rrsim.metrics import context_switches
from rrsim.model import COMPLETED
from rrsim.policies import POLICY_NAMES, make_round_robin, standard_policy


def test_generated_traces_satisfy_all_invariants():
    for seed in range(700):
        workload = seeded_workload(seed)
        policy = standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)])
        trace = simulate(workload, policy)
        problems = trace_violations(trace, workload)
        assert problems == [], f"seed {seed} {policy.descriptor.name}: {problems}"
        assert context_switches(trace) == len(trace.slices) - 1
        assert all(q >= 1 for _, q in trace.quantum_log)


def test_simulation_determinism_on_generated_workloads():
    for seed in range(0, 200, 5):
        workload = seeded_workload(seed)
        for name in POLICY_NAMES:
            policy = standard_policy(name)
            assert simulate(workload, policy) == simulate(workload, policy)


def test_irrvq_completes_a_process_every_cycle():
    for seed in range(300):
        workload = seeded_workload(seed)
        trace = simulate(workload, standard_policy("IRRVQ"))
        assert len(trace.quantum_log) <= len(workload)


@given(st.integers(0, 500), st.integers(1, 500))
def test_single_process_completion_for_every_policy(arrival, burst):
    workload = validate_workload([("P1", arrival, burst)])
    for name in POLICY_NAMES:
        trace = simulate(workload, standard_policy(name))
        assert completion_times(trace) == {"P1": arrival + burst}


@settings(max_examples=150)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=10))
def test_rr_with_quantum_at_least_max_burst_is_fcfs(bursts):
    workload = validate_workload(
        [(f"P{i + 1}", 0, b) for i, b in enumerate(bursts)])
    trace = simulate(workload, make_round_robin(max(bursts)))
    assert [s.pid for s in trace.slices] == list(workload.pids())
    assert all(s.termination == COMPLETED for s in trace.slices)
    expected_end = 0
    for s, p in zip(trace.slices, workload.processes):
        expected_end += p.burst
        assert s.end == expected_end


def test_work_conservation_no_idle_while_runnable():
    # staggered workloads with long gaps: every idle must end at an arrival
    for seed in range(200):
        workload = seeded_workload(seed, max_n=6, max_burst=30)
        arrivals = {p.arrival for p in workload}
        for name in ("RR", "DABRR", "RP5"):
            trace = simulate(workload, standard_policy(name))
            for gap in trace.idles:
                assert gap.end in arrivals

"""Fuzzed engine invariants over generated workloads.

The full-scale sweep (10^4 workloads) lives in the acceptance suite;
these runs are sized for the development loop.
"""
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import completion_times, seeded_workload

from rrsim import compute_metrics, simulate, trace_violations, validate_workload
from rrsim.model import COMPLETED
from rrsim.policies import POLICY_NAMES, make_round_robin, standard_policy
from rrsim.workloads import RANDOM, STAGGERED, GeneratorSpec, generate_workload


def test_generated_traces_satisfy_all_invariants():
    for seed in range(700):
        workload = seeded_workload(seed)
        policy = standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)])
        trace = simulate(workload, policy)
        problems = trace_violations(trace, workload)
        assert problems == [], f"seed {seed} {policy.descriptor.name}: {problems}"
        assert compute_metrics(trace, workload).context_switches == len(trace.slices) - 1
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
    assert [s.pid for s in trace.slices] == [p.pid for p in workload]
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


SHIFT = 7919


def _shifted_and_renamed(workload):
    """``workload`` with every arrival ``SHIFT`` ms later and process i of n
    renamed Z{n-i}, which reverses the pids' lexical order, plus the map
    from each new pid back to the old one."""
    n = len(workload)
    old = {f"Z{n - i}": p.pid for i, p in enumerate(workload.processes)}
    moved = validate_workload([(f"Z{n - i}", p.arrival + SHIFT, p.burst)
                               for i, p in enumerate(workload.processes)], workload.label)
    return moved, old


def _mapped_back(trace, old):
    return dataclasses.replace(
        trace,
        slices=tuple(s._replace(pid=old[s.pid], start=s.start - SHIFT, end=s.end - SHIFT)
                     for s in trace.slices))


def _assert_shift_and_rename_invariant(workload, policy):
    moved, old = _shifted_and_renamed(workload)
    assert _mapped_back(simulate(moved, policy), old) == simulate(workload, policy)


def test_trace_maps_back_after_shifting_arrivals_and_renaming_pids():
    for seed in range(300):
        workload = seeded_workload(seed)
        for name in POLICY_NAMES:
            _assert_shift_and_rename_invariant(workload, standard_policy(name))


def test_dabrr_restarts_map_back_on_a_busy_staggered_file():
    # far beyond the oracle's reach: DABRR restarts at nearly every arrival
    busy = generate_workload(GeneratorSpec(n=1500, burst_min=1, burst_max=50, order=RANDOM,
                                           arrival=STAGGERED, max_gap=8, seed=0))
    _assert_shift_and_rename_invariant(busy, standard_policy("DABRR"))

import collections
import dataclasses
import random
import re
import time

import pytest

from conftest import completion_times, seeded_workload

from rrsim import (
    ExecutionTrace,
    IdleGap,
    PolicyPlanInvalid,
    Slice,
    simulate,
    trace_violations,
    validate_workload,
)
from rrsim.engine import SLICE_BOUNDARY_RESTART, CyclePlan, PolicyBehavior, SnapshotEntry
from rrsim.model import COMPLETED, PolicyDescriptor, QUANTUM_EXPIRED
from rrsim.policies import (
    POLICY_NAMES,
    make_dabrr,
    make_dqrrr,
    make_round_robin,
    standard_policy,
)
from rrsim.workloads import benchmark_case


def test_dabrr_case_i_trace():
    w = benchmark_case("I")
    trace = simulate(w, make_dabrr())
    assert tuple(q for _, q in trace.quantum_log) == (69, 27, 6)
    assert len(trace.slices) == 8
    assert completion_times(trace) == {
        "P1": 40, "P2": 95, "P3": 155, "P4": 314, "P5": 347}
    assert trace_violations(trace, w) == []


def test_single_process_is_one_slice():
    w = validate_workload([("P1", 0, 42)])
    trace = simulate(w, make_dabrr())
    assert [(s.pid, s.start, s.end, s.termination) for s in trace.slices] \
        == [("P1", 0, 42, COMPLETED)]
    assert trace.quantum_log == ((1, 42),)


def test_rr_idles_until_late_arrival():
    w = validate_workload([("P1", 0, 10), ("P2", 50, 10)])
    trace = simulate(w, make_round_robin(25))
    assert [(s.pid, s.start, s.end) for s in trace.slices] \
        == [("P1", 0, 10), ("P2", 50, 60)]
    assert trace.idles == (IdleGap(10, 50),)
    assert trace_violations(trace, w) == []


def test_rr_case_i_slice_count_and_completions():
    w = benchmark_case("I")
    trace = simulate(w, make_round_robin(25))
    assert len(trace.slices) == 17
    assert completion_times(trace) == {
        "P1": 140, "P2": 245, "P3": 255, "P4": 320, "P5": 347}


def test_rr_arrival_enqueues_before_preempted_process():
    # P2 arrives exactly when P1 is preempted: P2 runs first
    w = validate_workload([("P1", 0, 20), ("P2", 10, 5)])
    trace = simulate(w, make_round_robin(10))
    assert [(s.pid, s.start, s.end) for s in trace.slices] \
        == [("P1", 0, 10), ("P2", 10, 15), ("P1", 15, 25)]


def test_simulation_is_deterministic():
    w = benchmark_case("V")
    for policy_name in ("RR", "DQRRR", "DABRR", "MRR"):
        first = simulate(w, standard_policy(policy_name))
        second = simulate(w, standard_policy(policy_name))
        assert first == second


def test_rr_with_huge_quantum_reduces_to_fcfs():
    w = benchmark_case("II")
    trace = simulate(w, make_round_robin(10_000))
    assert [s.pid for s in trace.slices] == list(w.pids())
    assert all(s.termination == COMPLETED for s in trace.slices)


def test_dabrr_restart_replans_when_arrivals_interrupt_a_cycle():
    w = validate_workload([("P1", 0, 30), ("P2", 0, 30), ("P3", 0, 40), ("P4", 55, 5)])
    trace = simulate(w, make_dabrr())
    # cycle 1 plans q=33 over P1,P2,P3; P4 arrives at 55 during P2's
    # slice, so the boundary at t=60 abandons the cycle before P3 runs
    # and cycle 2 replans over P3 and P4 (sorted ascending, q=22)
    assert tuple(q for _, q in trace.quantum_log) == (33, 22, 18)
    assert [(s.pid, s.cycle) for s in trace.slices] == [
        ("P1", 1), ("P2", 1), ("P4", 2), ("P3", 2), ("P3", 3)]
    assert trace_violations(trace, w) == []


def _defective(order_fn, quantum=10):
    def plan(snapshot):
        return CyclePlan(order_fn(snapshot.entries), quantum)
    return PolicyBehavior(PolicyDescriptor.of("BROKEN"), plan)


def test_plan_must_be_a_permutation():
    w = benchmark_case("I")
    with pytest.raises(PolicyPlanInvalid):
        simulate(w, _defective(lambda records: records[:-1]))
    with pytest.raises(PolicyPlanInvalid):
        simulate(w, _defective(lambda records: records + (records[0],)))
    with pytest.raises(PolicyPlanInvalid):
        simulate(w, _defective(lambda records: records[:-1] + (records[0],)))
    with pytest.raises(PolicyPlanInvalid, match=r"\('P1', 'P2', 'P3', 'P4', 'P99'\)"):
        simulate(w, _defective(
            lambda records: records[:-1] + (SnapshotEntry("P99", 5, 0, 5, False),)))
    # the right pid with less work left: a check of pids alone would run it
    with pytest.raises(PolicyPlanInvalid):
        simulate(w, _defective(lambda records: records[:-1] + (
            records[-1]._replace(remaining=records[-1].remaining - 1),)))
    # an equal copy is not the queue's own record either
    with pytest.raises(PolicyPlanInvalid):
        simulate(w, _defective(lambda records: records[:-1] + (SnapshotEntry(*records[-1]),)))


@pytest.mark.parametrize("order_fn", [
    list,                                      # the same records, but a copy of the queue
    lambda records: records[::-1],             # a permutation out of rank order
    lambda records: records[:-1],              # a record short
])
def test_ascending_plan_must_be_the_snapshot_entries(order_fn):
    policy = dataclasses.replace(_defective(order_fn), ascending=True)
    with pytest.raises(PolicyPlanInvalid, match="not the ascending queue's records"):
        simulate(benchmark_case("I"), policy)


def test_ascending_queue_rejects_tail_rejoin():
    policy = dataclasses.replace(make_round_robin(10), ascending=True)
    with pytest.raises(ValueError, match="'tail_rejoin' cannot keep the queue ascending"):
        simulate(benchmark_case("I"), policy)


def test_unknown_arrival_mode_rejected():
    policy = dataclasses.replace(make_dabrr(), arrival_mode="sometimes")
    with pytest.raises(ValueError, match="arrival mode"):
        simulate(benchmark_case("I"), policy)


def test_rr_plans_once_per_pass():
    w = validate_workload([("P1", 0, 30), ("P2", 0, 10), ("P3", 10, 20), ("P4", 90, 5)])
    rr = make_round_robin(10)
    snapshots = []

    def plan(snapshot):
        snapshots.append(tuple(e.pid for e in snapshot.entries))
        return rr.plan(snapshot)

    trace = simulate(w, dataclasses.replace(rr, plan=plan))
    # P3 arrives as P1 is preempted and joins pass 2 ahead of it
    assert snapshots == [("P1", "P2"), ("P3", "P1"), ("P3", "P1"), ("P4",)]
    assert [s.cycle for s in trace.slices] == [1, 1, 2, 2, 3, 3, 4]
    assert trace.quantum_log == ((1, 10),)


def test_plan_quantum_must_be_positive():
    w = benchmark_case("I")
    with pytest.raises(PolicyPlanInvalid):
        simulate(w, _defective(lambda records: records, quantum=0))


def test_replay_check_accepts_all_benchmark_traces():
    for case_id in ("I", "II", "III", "IV", "V", "VI", "ILL"):
        w = benchmark_case(case_id)
        for name in ("RR", "DQRRR", "IRRVQ", "SARR", "RP5", "MRR", "DABRR"):
            trace = simulate(w, standard_policy(name))
            assert trace_violations(trace, w) == []


def test_replay_check_flags_slice_before_arrival():
    w = validate_workload([("P1", 5, 10)])
    trace = ExecutionTrace(
        algorithm=PolicyDescriptor.of("RR", q=25),
        slices=(Slice("P1", 0, 10, 1, 25, COMPLETED),),
        quantum_log=((1, 25),))
    problems = trace_violations(trace, w)
    assert any("before arrival" in p for p in problems)
    assert problems


def test_replay_check_flags_conservation_violation():
    w = benchmark_case("I")
    good = simulate(w, make_dabrr())
    short = good.slices[0]._replace(end=good.slices[0].end - 1)
    # shift is deliberately not propagated: both conservation and
    # contiguity must be reported
    bad = dataclasses.replace(good, slices=(short,) + good.slices[1:])
    problems = trace_violations(bad, w)
    assert any("burst" in p for p in problems)
    assert any("runnable" in p for p in problems)


def test_replay_check_flags_idle_while_work_pending():
    w = validate_workload([("P1", 0, 20)])
    trace = ExecutionTrace(
        algorithm=PolicyDescriptor.of("RR", q=10),
        slices=(Slice("P1", 0, 10, 1, 10, QUANTUM_EXPIRED),
                Slice("P1", 15, 25, 2, 10, COMPLETED)),
        quantum_log=((1, 10),))
    problems = trace_violations(trace, w)
    assert any("runnable" in p for p in problems)


def test_every_policy_completes_single_process_at_arrival_plus_burst():
    w = validate_workload([("P1", 7, 13)])
    for name in ("RR", "DQRRR", "IRRVQ", "SARR", "RP5", "MRR", "DABRR"):
        trace = simulate(w, standard_policy(name))
        assert completion_times(trace) == {"P1": 20}


@pytest.mark.parametrize("policy, records", [
    # P5 arrives during P3's preempted slice, so DABRR abandons cycle 1
    # before P4 runs and replans over P3, P4 and P5
    (make_dabrr(), [("P1", 0, 10), ("P2", 0, 20), ("P3", 0, 90), ("P4", 0, 100),
                    ("P5", 70, 5)]),
    # P3 arrives mid-cycle and joins DQRRR's next cycle beside the preempted P2
    (make_dqrrr(), [("P1", 0, 50), ("P2", 0, 90), ("P3", 20, 40)]),
    # P3 arrives just as P1 is preempted and joins the queue ahead of it
    (make_round_robin(10), [("P1", 0, 30), ("P2", 0, 10), ("P3", 10, 20), ("P4", 90, 5)]),
])
def test_snapshot_records_match_the_trace(policy, records):
    w = validate_workload(records)
    snapshots = []

    def plan(snapshot):
        snapshots.append(snapshot)
        return policy.plan(snapshot)

    trace = simulate(w, dataclasses.replace(policy, plan=plan))
    assert len(snapshots) == trace.slices[-1].cycle
    for snapshot in snapshots:
        done = [s for s in trace.slices if s.end <= snapshot.now]
        executed = {p.pid: sum(s.duration for s in done if s.pid == p.pid) for p in w}
        expected = {
            p.pid: (p.burst - executed[p.pid], p.arrival, i, any(s.pid == p.pid for s in done))
            for i, p in enumerate(w.processes)
            if p.arrival <= snapshot.now and executed[p.pid] < p.burst}
        actual = {e.pid: (e.remaining, e.arrival, e.submission_index, e.dispatched_before)
                  for e in snapshot.entries}
        assert len(snapshot.entries) == len(actual)
        assert actual == expected, f"cycle {snapshot.cycle_index} at {snapshot.now}"
    # each case reaches a snapshot that mixes dispatched and new processes
    assert any(len({e.dispatched_before for e in s.entries}) == 2 for s in snapshots)
    abandoned = any(sum(s.cycle == snap.cycle_index for s in trace.slices) < len(snap.entries)
                    for snap in snapshots)
    assert abandoned == (policy.arrival_mode == SLICE_BOUNDARY_RESTART)


def _hand_trace(slices, quantum_log=((1, 10),)):
    return ExecutionTrace(PolicyDescriptor.of("RR", q=10), tuple(slices), quantum_log)


_ONE = [("P1", 0, 10)]
_TWO = [("P1", 0, 10), ("P2", 0, 10)]


def test_hand_built_trace_without_defects_passes():
    w = validate_workload([("P1", 0, 10), ("P2", 15, 5)])
    trace = _hand_trace([Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED),
                         Slice("P1", 5, 10, 2, 5, COMPLETED),
                         Slice("P2", 15, 20, 3, 5, COMPLETED)],
                        quantum_log=((1, 5),))
    assert trace_violations(trace, w) == []


# One minimal trace per invariant; each is valid except for that defect.
@pytest.mark.parametrize("records, slices, quantum_log, message", [
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P9", 10, 15, 2, 10, COMPLETED)],
                 ((1, 10),), "unknown pid", id="unknown-pid"),
    pytest.param(_ONE, [Slice("P1", 0, 0, 1, 10, QUANTUM_EXPIRED), Slice("P1", 0, 10, 1, 10, COMPLETED)],
                 ((1, 10),), "empty or reversed slice", id="empty-slice"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 5, COMPLETED)],
                 ((1, 5),), "exceeds quantum", id="over-quantum"),
    pytest.param([("P1", 5, 10)], [Slice("P1", 0, 10, 1, 10, COMPLETED)],
                 ((1, 10),), "before arrival", id="before-arrival"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 10, COMPLETED)],
                 ((1, 10),), "burst", id="under-executed"),
    pytest.param(_ONE, [Slice("P1", 0, 15, 1, 15, COMPLETED)],
                 ((1, 15),), "burst", id="over-executed"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 10, QUANTUM_EXPIRED)],
                 ((1, 10),), "not marked completed", id="final-not-completed"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 5, COMPLETED), Slice("P1", 5, 10, 2, 5, COMPLETED)],
                 ((1, 5),), "non-final slice of P1 marked completed", id="non-final-completed"),
    pytest.param(_TWO, [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 5, 15, 1, 10, COMPLETED)],
                 ((1, 10),), "overlaps", id="overlap"),
    pytest.param(_TWO, [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 12, 22, 1, 10, COMPLETED)],
                 ((1, 10),), "runnable", id="hole"),
    pytest.param([("P1", 0, 20)],
                 [Slice("P1", 0, 10, 1, 10, QUANTUM_EXPIRED), Slice("P1", 15, 25, 2, 10, COMPLETED)],
                 ((1, 10),), "runnable", id="idle-while-runnable"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 10, COMPLETED)],
                 (), "empty quantum log", id="empty-quantum-log"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 2, 10, COMPLETED)],
                 ((1, 10),), "in cycle 2, not cycle 1", id="first-cycle-not-one"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice("P1", 5, 10, 3, 5, COMPLETED)],
                 ((1, 5),), "in cycle 3, not cycle 2", id="cycle-skipped"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice("P1", 5, 10, 2, 5, COMPLETED)],
                 ((1, 5), (2, 6)), "cycle 2's logged quantum is 6", id="quantum-not-logged"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 10, COMPLETED)],
                 ((1, 10), (2, 0)), "< 1", id="quantum-below-one"),
])
def test_each_trace_invariant_is_flagged(records, slices, quantum_log, message):
    problems = trace_violations(_hand_trace(slices, quantum_log),
                                validate_workload(records))
    assert any(message in p for p in problems), problems


def _shorten_one_slice(trace, rng):
    i = rng.randrange(len(trace.slices))
    s = trace.slices[i]
    return _with_slices(trace, i, s._replace(end=s.end - 1))


def _flip_one_completion_mark(trace, rng):
    i = rng.randrange(len(trace.slices))
    s = trace.slices[i]
    flipped = QUANTUM_EXPIRED if s.termination == COMPLETED else COMPLETED
    return _with_slices(trace, i, s._replace(termination=flipped))


def _insert_gap_after_abutting_pair(trace, rng):
    pairs = [i for i in range(len(trace.slices) - 1)
             if trace.slices[i].end == trace.slices[i + 1].start]
    if not pairs:
        return None
    i = rng.choice(pairs)
    delta = rng.randint(1, 5)
    shifted = tuple(s._replace(start=s.start + delta, end=s.end + delta)
                    for s in trace.slices[i + 1:])
    return dataclasses.replace(trace, slices=trace.slices[:i + 1] + shifted)


def _swap_adjacent_slices(trace, rng):
    if len(trace.slices) < 2:
        return None
    i = rng.randrange(len(trace.slices) - 1)
    first, second = trace.slices[i:i + 2]
    return dataclasses.replace(
        trace, slices=trace.slices[:i] + (second, first) + trace.slices[i + 2:])


def _delete_one_slice(trace, rng):
    i = rng.randrange(len(trace.slices))
    return dataclasses.replace(trace, slices=trace.slices[:i] + trace.slices[i + 1:])


def _duplicate_one_slice(trace, rng):
    i = rng.randrange(len(trace.slices))
    return dataclasses.replace(trace, slices=trace.slices[:i + 1] + trace.slices[i:])


def _change_one_slices_pid(trace, rng):
    i = rng.randrange(len(trace.slices))
    others = sorted({s.pid for s in trace.slices} - {trace.slices[i].pid})
    if not others:
        return None
    return _with_slices(trace, i, trace.slices[i]._replace(pid=rng.choice(others)))


def _lower_one_slices_quantum(trace, rng):
    i = rng.randrange(len(trace.slices))
    s = trace.slices[i]
    return _with_slices(trace, i, s._replace(quantum_in_effect=rng.randrange(s.duration)))


def _inflate_one_slices_quantum(trace, rng):
    i = rng.randrange(len(trace.slices))
    s = trace.slices[i]
    return _with_slices(trace, i, s._replace(
        quantum_in_effect=s.quantum_in_effect + rng.randint(1, 50)))


def _change_one_slices_cycle(trace, rng):
    i = rng.randrange(len(trace.slices))
    before = trace.slices[i - 1].cycle if i else 0
    # a step of neither 0 nor 1 past the slice before (the first must be cycle 1)
    cycle = before + rng.choice((-1, 2, 3, 5))
    return _with_slices(trace, i, trace.slices[i]._replace(cycle=cycle))


def _corrupt_quantum_log(trace, rng):
    log = trace.quantum_log
    if rng.random() < 0.25:
        return dataclasses.replace(trace, quantum_log=())
    i = rng.randrange(len(log))
    bad = (log[i][0], rng.randint(-3, 0))
    return dataclasses.replace(trace, quantum_log=log[:i] + (bad,) + log[i + 1:])


def _with_slices(trace, i, replacement):
    return dataclasses.replace(
        trace, slices=trace.slices[:i] + (replacement,) + trace.slices[i + 1:])


# Each mutation, paired with the violation it provably causes on every trace
# it applies to (every slice of a valid trace runs at least 1 ms).
_SHORT_OR_LONG = r"executed \d+ ms, burst is"
CHECKER_MUTATIONS = [
    (_shorten_one_slice, _SHORT_OR_LONG),  # its process runs less than its burst
    (_flip_one_completion_mark, "marked completed"),
    (_swap_adjacent_slices, "out of time order"),  # two non-empty slices
    # the second slice's process was runnable throughout the new gap
    (_insert_gap_after_abutting_pair, "runnable"),
    (_delete_one_slice, _SHORT_OR_LONG),  # its process runs less than its burst
    (_duplicate_one_slice, _SHORT_OR_LONG),  # its process runs more than its burst
    (_change_one_slices_pid, _SHORT_OR_LONG),  # one process runs less, another more
    (_lower_one_slices_quantum, "exceeds quantum"),
    # every slice of a cycle runs at the quantum logged for it
    (_inflate_one_slices_quantum, r"has quantum \d+, but cycle \d+'s logged quantum is"),
    (_change_one_slices_cycle, r"in cycle -?\d+, not cycle \d+"),
    (_corrupt_quantum_log, r"empty quantum log|logged quantum -?\d+ < 1"),
]


def test_seeded_mutated_traces_are_all_flagged():
    applied = collections.Counter()
    for seed in range(1000):
        rng = random.Random(seed)
        workload = seeded_workload(seed)
        trace = simulate(workload, standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)]))
        for mutate, violation in CHECKER_MUTATIONS:
            bad = mutate(trace, rng)
            if bad is None:
                continue
            applied[mutate] += 1
            problems = "; ".join(trace_violations(bad, workload))
            assert re.search(violation, problems), f"seed {seed}: {mutate.__name__}: {problems}"
    # a swap needs two slices, a pid change two pids, a gap an abutting pair
    assert len(applied) == len(CHECKER_MUTATIONS) and min(applied.values()) >= 900


def test_slices_listed_out_of_time_order_are_flagged():
    w = benchmark_case("I")
    good = simulate(w, make_round_robin(25))
    swapped = dataclasses.replace(good, slices=good.slices[1::-1] + good.slices[2:])
    problems = trace_violations(swapped, w)
    assert any("out of time order" in p for p in problems), problems


def test_checker_runs_in_linear_time_over_many_idle_gaps():
    # each process arrives after the previous one has finished: 9,999 gaps
    w = validate_workload([(f"P{i}", 2 * i, 1) for i in range(10_000)])
    trace = simulate(w, make_round_robin(1))
    assert len(trace.idles) == 9_999
    started = time.perf_counter()
    assert trace_violations(trace, w) == []
    assert time.perf_counter() - started < 1.0

import collections
import dataclasses
import random
import re
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import completion_times, seeded_workload
from reference_walk import walk_trace as reference_walk

from rrsim import (
    ExecutionTrace,
    IdleGap,
    InconsistentTrace,
    PolicyPlanInvalid,
    Slice,
    compute_metrics,
    simulate,
    trace_violations,
    validate_workload,
)
from rrsim.engine import (
    ARRIVAL_MODES,
    CYCLE_BOUNDARY,
    SLICE_BOUNDARY_RESTART,
    TAIL_REJOIN,
    _walk_trace,
    PolicyBehavior,
    ReadyQueue,
    ReadySnapshot,
)
from rrsim.model import COMPLETED, PolicyDescriptor, QUANTUM_EXPIRED, SliceView
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
    assert [s.pid for s in trace.slices] == [p.pid for p in w]
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


def _defective(order_fn, quantum=10, mode=CYCLE_BOUNDARY):
    def plan(snapshot):  # ``order_fn`` maps the queue positions to the plan's order
        return order_fn(tuple(range(len(snapshot.entries)))), quantum
    return PolicyBehavior(PolicyDescriptor.of("BROKEN"), plan, mode)


# The defective plans below are each refused on case I, whose first cycle
# plans over five processes, and on ONE_FIRST, whose first cycle plans over
# one in every arrival mode: P2 arrives during P1's first slice.
ONE_FIRST = validate_workload([("P1", 0, 30), ("P2", 5, 20)])
in_every_mode = pytest.mark.parametrize("mode", ARRIVAL_MODES)


def test_plan_must_be_a_permutation():
    # Case I queues all five processes at once, so its first plan orders
    # positions 0..4.  True, 1.0 and -1 would each index a list, and
    # [True, 0, 2, 3, 4] even makes the set {0, 1, 2, 3, 4}.
    for order in ([0, 1, 2, 3],            # a position dropped
                  [0, 1, 2, 3, 4, 0],      # one repeated, one too many
                  (0, 1, 2, 3, 0),         # one repeated, one dropped
                  [0, 1, 2, 3, 5],         # past the end
                  [-1, 0, 1, 2, 3],        # negative
                  [True, 0, 2, 3, 4],      # a bool
                  [0, 1.0, 2, 3, 4],       # a float
                  ["0", 1, 2, 3, 4],       # a str
                  [[0], 1, 2, 3, 4]):      # unhashable
        message = (rf"^BROKEN: plan order {re.escape(repr(order))} is not a permutation "
                   rf"of the queue positions 0\.\.4$")
        with pytest.raises(PolicyPlanInvalid, match=message):
            simulate(benchmark_case("I"), _defective(lambda positions: order))


@pytest.mark.parametrize("order", [
    [],            # the position dropped
    [0, 0],        # repeated
    (1,),          # past the end
    [-1],          # negative: it indexes the one process too
    [False],       # a bool: it equals 0 and indexes like it
    [0.0],         # a float equal to 0
    ["0"],         # a str
    [[0]],         # unhashable
])
@in_every_mode
def test_one_process_plan_must_be_a_permutation(order, mode):
    message = (rf"^BROKEN: plan order {re.escape(repr(order))} is not a permutation "
               rf"of the queue positions 0\.\.0$")
    with pytest.raises(PolicyPlanInvalid, match=message):
        simulate(ONE_FIRST, _defective(lambda positions: order, mode=mode))


not_the_entries = pytest.mark.parametrize("order_fn", [
    list,                                      # the queue order, but as positions
    lambda positions: positions[::-1],         # a permutation out of rank order
    lambda positions: positions[:-1],          # a position short
])
NOT_THE_ENTRIES = "^BROKEN: plan order .* is not the ascending queue's entries$"


@not_the_entries
def test_ascending_plan_must_be_the_snapshot_entries(order_fn):
    policy = dataclasses.replace(_defective(order_fn), ascending=True)
    with pytest.raises(PolicyPlanInvalid, match=NOT_THE_ENTRIES):
        simulate(benchmark_case("I"), policy)


@not_the_entries
@pytest.mark.parametrize("mode", [CYCLE_BOUNDARY, SLICE_BOUNDARY_RESTART])  # both that ascend
def test_one_process_ascending_plan_must_be_the_snapshot_entries(order_fn, mode):
    policy = dataclasses.replace(_defective(order_fn, mode=mode), ascending=True)
    with pytest.raises(PolicyPlanInvalid, match=NOT_THE_ENTRIES):
        simulate(ONE_FIRST, policy)


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
        snapshots.append(tuple(snapshot.entries.pid))
        return rr.plan(snapshot)

    trace = simulate(w, dataclasses.replace(rr, plan=plan))
    # P3 arrives as P1 is preempted and joins pass 2 ahead of it
    assert snapshots == [("P1", "P2"), ("P3", "P1"), ("P3", "P1"), ("P4",)]
    assert [s.cycle for s in trace.slices] == [1, 1, 2, 2, 3, 3, 4]
    assert trace.quantum_log == ((1, 10),)


def test_plan_quantum_must_be_positive():
    w = benchmark_case("I")
    with pytest.raises(PolicyPlanInvalid):
        simulate(w, _defective(lambda positions: positions, quantum=0))


@in_every_mode
@pytest.mark.parametrize("quantum", [0, -1])
def test_one_process_plan_quantum_must_be_positive(quantum, mode):
    # the entries as the order take the inline check, the positions the full one
    for policy in (PolicyBehavior(PolicyDescriptor.of("BROKEN"),
                                  lambda s: (s.entries, quantum), mode),
                   _defective(lambda positions: positions, quantum, mode)):
        with pytest.raises(PolicyPlanInvalid, match=rf"^BROKEN: quantum {quantum} < 1$"):
            simulate(ONE_FIRST, policy)


not_an_int = pytest.mark.parametrize("quantum", [2.5, 3.0, True],
                                     ids=["float", "integral float", "bool"])


@not_an_int
def test_plan_quantum_must_be_an_int(quantum):
    # each would simulate, then fail in Fraction arithmetic or print as "True"
    policy = PolicyBehavior(PolicyDescriptor.of("X"), lambda s: (s.entries, quantum))
    with pytest.raises(PolicyPlanInvalid, match=rf"^X: quantum {quantum!r} is not an int$"):
        simulate(benchmark_case("I"), policy)


@not_an_int
@in_every_mode
def test_one_process_plan_quantum_must_be_an_int(mode, quantum):
    policy = PolicyBehavior(PolicyDescriptor.of("X"), lambda s: (s.entries, quantum), mode)
    with pytest.raises(PolicyPlanInvalid, match=rf"^X: quantum {quantum!r} is not an int$"):
        simulate(ONE_FIRST, policy)


not_a_sequence = pytest.mark.parametrize("order_fn, kind", [
    (iter, "tuple_iterator"),
    (lambda positions: None, "NoneType"),
], ids=["iterator", "none"])


@not_a_sequence
def test_plan_order_must_be_a_tuple_or_list(order_fn, kind):
    with pytest.raises(PolicyPlanInvalid,
                       match=rf"^BROKEN: plan order is a {kind}, not a tuple or list$"):
        simulate(benchmark_case("I"), _defective(order_fn))


@not_a_sequence
@in_every_mode
def test_one_process_plan_order_must_be_a_tuple_or_list(mode, order_fn, kind):
    with pytest.raises(PolicyPlanInvalid,
                       match=rf"^BROKEN: plan order is a {kind}, not a tuple or list$"):
        simulate(ONE_FIRST, _defective(order_fn, mode=mode))


def test_plan_may_return_a_plain_pair():
    dabrr = make_dabrr()
    pair = dataclasses.replace(dabrr, plan=lambda s: list(dabrr.plan(s)))
    w = benchmark_case("I")
    assert simulate(w, pair) == simulate(w, dabrr)


not_a_pair = pytest.mark.parametrize("result, kind", [
    (None, "NoneType"),
    (5, "int"),
    ((), "tuple"),
    (("order", 5, "extra"), "tuple"),
], ids=["none", "int", "empty", "triple"])


@not_a_pair
def test_plan_result_must_be_a_pair(result, kind):
    policy = PolicyBehavior(PolicyDescriptor.of("X"), lambda s: result)
    with pytest.raises(PolicyPlanInvalid,
                       match=rf"^X: plan is a {kind}, not an \(order, quantum\) pair$"):
        simulate(benchmark_case("I"), policy)


@not_a_pair
@in_every_mode
def test_one_process_plan_result_must_be_a_pair(mode, result, kind):
    policy = PolicyBehavior(PolicyDescriptor.of("X"), lambda s: result, mode)
    with pytest.raises(PolicyPlanInvalid,
                       match=rf"^X: plan is a {kind}, not an \(order, quantum\) pair$"):
        simulate(ONE_FIRST, policy)


@in_every_mode
def test_one_process_cycles_run_alike_under_either_plan_check(mode):
    # The plain tuple of the entries and an int quantum is accepted inline;
    # a list, a tuple subclass and the positions take the full check.  Each
    # cycle that holds one process is dispatched as one slice: under
    # tail_rejoin P2, which arrived during P1's first slice, runs before P1.
    class Pair(tuple):
        pass

    def policy(plan):
        return PolicyBehavior(PolicyDescriptor.of("X"), plan, mode)

    first, second = ("P2", "P1") if mode == TAIL_REJOIN else ("P1", "P2")
    for plan in (lambda s: (s.entries, 10), lambda s: [s.entries, 10],
                 lambda s: Pair((s.entries, 10)), lambda s: (tuple(range(len(s.entries))), 10)):
        trace = simulate(ONE_FIRST, policy(plan))
        assert [(s.pid, s.start, s.end, s.cycle) for s in trace.slices] == [
            ("P1", 0, 10, 1), (first, 10, 20, 2), (second, 20, 30, 2),
            (first, 30, 40, 3), (second, 40, 50, 3)]
        assert trace_violations(trace, ONE_FIRST) == []


def test_a_snapshot_view_reads_the_queue_columns():
    views = []
    rr = make_round_robin(10)
    w = validate_workload([("P1", 0, 30), ("P2", 0, 10), ("P3", 10, 20)])
    simulate(w, dataclasses.replace(rr, plan=lambda s: views.append(s.entries) or rr.plan(s)))
    # pass 2: P3 arrived as P1 was preempted and queued ahead of it; P2 finished
    entries = views[1]
    assert type(entries) is ReadyQueue and len(entries) == 2
    assert entries.pid == ["P3", "P1"]
    assert entries.remaining == [20, 20]
    assert entries.arrival == [10, 0]
    assert entries.submission_index == [2, 0]
    assert entries.dispatched_before == [False, True]
    # columns only: no record is built, so none can be indexed, iterated or compared
    assert not {"__getitem__", "__iter__", "__eq__", "__hash__", "__add__"} & set(vars(ReadyQueue))
    # a hand-built snapshot is an engine queue that reads back its columns:
    # submission indexes are positions, and P1 has run since its remaining
    # work is below its burst
    given = ReadySnapshot.of(("P3", "P1"), (20, 20), (10, 0), (20, 30),
                             now=10, cycle_index=2).entries
    assert type(given) is ReadyQueue
    assert (given.pid, given.remaining, given.arrival, given.submission_index,
            given.dispatched_before) == (["P3", "P1"], [20, 20], [10, 0], [0, 1], [False, True])
    columns = [["P1", "P2"], [5, 5], [0, 0], [5, 9]]
    for short in range(4):  # zip would drop the second process without a word
        uneven = [column[:1] if i == short else column for i, column in enumerate(columns)]
        with pytest.raises(ValueError, match=r"^columns of unequal length"):
            ReadySnapshot.of(*uneven, now=0, cycle_index=1)


def test_every_snapshot_is_a_ready_queue_of_equal_columns():
    # the seeds and policies of the checker's seeded sweep below; every
    # shipped plan is a plain (order, quantum) tuple
    for seed in range(1000):
        policy = standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)])
        snapshots = []

        def plan(snapshot, inner=policy.plan):
            snapshots.append(snapshot)
            result = inner(snapshot)
            assert type(result) is tuple and len(result) == 2, seed
            return result

        simulate(seeded_workload(seed), dataclasses.replace(policy, plan=plan))
        assert snapshots, seed
        for s in snapshots:
            e = s.entries
            assert type(s) is ReadySnapshot and type(e) is ReadyQueue, seed
            assert {len(e.pid), len(e.remaining), len(e.arrival), len(e.submission_index),
                    len(e.dispatched_before)} == {len(e)}, seed


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
        slices=(Slice("P1", 0, 10, 1, 25, COMPLETED),))
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
                Slice("P1", 15, 25, 2, 10, COMPLETED)))
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
        executed = {p.pid: sum(s.end - s.start for s in done if s.pid == p.pid) for p in w}
        expected = {
            p.pid: (p.burst - executed[p.pid], p.arrival, i, any(s.pid == p.pid for s in done))
            for i, p in enumerate(w.processes)
            if p.arrival <= snapshot.now and executed[p.pid] < p.burst}
        e = snapshot.entries
        actual = dict(zip(e.pid, zip(e.remaining, e.arrival, e.submission_index,
                                     e.dispatched_before)))
        assert len(e) == len(actual)
        assert actual == expected, f"cycle {snapshot.cycle_index} at {snapshot.now}"
    # each case reaches a snapshot that mixes dispatched and new processes
    assert any(len(set(s.entries.dispatched_before)) == 2 for s in snapshots)
    abandoned = any(sum(s.cycle == snap.cycle_index for s in trace.slices) < len(snap.entries)
                    for snap in snapshots)
    assert abandoned == (policy.arrival_mode == SLICE_BOUNDARY_RESTART)


def _hand_trace(slices):
    return ExecutionTrace(PolicyDescriptor.of("RR", q=10), tuple(slices))


_ONE = [("P1", 0, 10)]
_TWO = [("P1", 0, 10), ("P2", 0, 10)]


def test_hand_built_trace_without_defects_passes():
    w = validate_workload([("P1", 0, 10), ("P2", 15, 5)])
    trace = _hand_trace([Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED),
                         Slice("P1", 5, 10, 2, 5, COMPLETED),
                         Slice("P2", 15, 20, 3, 5, COMPLETED)])
    assert trace_violations(trace, w) == []


def _flagged(records, slices):
    """The checker's messages on a hand-built trace, or the refusal of a
    list of slices that no trace can hold."""
    try:
        trace = _hand_trace(slices)
    except ValueError as refused:
        return [f"refused: {refused}"]
    return trace_violations(trace, validate_workload(records))


# One minimal trace per invariant; each is valid except for that defect.  A
# trace stores each cycle's quantum once, so a list of slices whose cycles
# do not count up from 1 by 0 or 1, or whose quantum changes inside a cycle,
# is refused when the trace is built, naming the first such slice.  So is a
# slice that runs less than 1 ms or starts before the one before it ends.
@pytest.mark.parametrize("records, slices, message", [
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P9", 10, 15, 2, 10, COMPLETED)],
                 "unknown pid", id="unknown-pid"),
    pytest.param(_ONE, [Slice("P1", 0, 0, 1, 10, QUANTUM_EXPIRED), Slice("P1", 0, 10, 1, 10, COMPLETED)],
                 "refused: slice 0 [0,0) runs less than 1 ms", id="empty-slice"),
    pytest.param(_TWO, [Slice("P1", 20, 5, 1, 10, QUANTUM_EXPIRED), Slice("P2", 5, 15, 1, 10, COMPLETED)],
                 "refused: slice 0 [20,5) runs less than 1 ms", id="reversed-after-gap"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 5, COMPLETED)],
                 "exceeds quantum", id="over-quantum"),
    pytest.param([("P1", 5, 10)], [Slice("P1", 0, 10, 1, 10, COMPLETED)],
                 "before arrival", id="before-arrival"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 10, COMPLETED)],
                 "burst", id="under-executed"),
    pytest.param(_ONE, [Slice("P1", 0, 15, 1, 15, COMPLETED)],
                 "burst", id="over-executed"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 10, QUANTUM_EXPIRED)],
                 "not marked completed", id="final-not-completed"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 5, COMPLETED), Slice("P1", 5, 10, 2, 5, COMPLETED)],
                 "non-final slice of P1 marked completed", id="non-final-completed"),
    pytest.param(_TWO, [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 5, 15, 1, 10, COMPLETED)],
                 "refused: slice 1 [5,15) starts before 10, where the slice before it ends",
                 id="overlap"),
    pytest.param(_TWO, [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P1", 0, 10, 1, 10, COMPLETED)],
                 "refused: slice 1 [0,10) starts before 10, where the slice before it ends",
                 id="duplicated"),
    pytest.param(_TWO, [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 12, 22, 1, 10, COMPLETED)],
                 "runnable", id="hole"),
    pytest.param([("P1", 0, 20)],
                 [Slice("P1", 0, 10, 1, 10, QUANTUM_EXPIRED), Slice("P1", 15, 25, 2, 10, COMPLETED)],
                 "runnable", id="idle-while-runnable"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 2, 10, COMPLETED)],
                 "refused: slice 0 in cycle 2 at quantum 10 cannot follow cycle 0",
                 id="first-cycle-not-one"),
    pytest.param(_ONE, [Slice("P1", 0, 10, 0, 10, COMPLETED)],
                 "refused: slice 0 in cycle 0 at quantum 10 cannot follow cycle 0",
                 id="first-cycle-zero"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice("P1", 5, 10, 3, 5, COMPLETED)],
                 "refused: slice 1 in cycle 3 at quantum 5 cannot follow cycle 1 at quantum 5",
                 id="cycle-skipped"),
    pytest.param(_TWO, [Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice("P2", 5, 10, 2, 5, QUANTUM_EXPIRED),
                        Slice("P1", 10, 15, 1, 5, COMPLETED), Slice("P2", 15, 20, 2, 5, COMPLETED)],
                 "refused: slice 2 in cycle 1 at quantum 5 cannot follow cycle 2 at quantum 5",
                 id="cycle-goes-back"),
    pytest.param(_ONE, [Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice("P1", 5, 10, 1, 6, COMPLETED)],
                 "refused: slice 1 in cycle 1 at quantum 6 cannot follow cycle 1 at quantum 5",
                 id="quantum-changes-in-cycle"),
    # a slice runs at least 1 ms, so no valid slice fits a quantum below 1
    pytest.param(_ONE, [Slice("P1", 0, 10, 1, 0, COMPLETED)],
                 "exceeds quantum 0", id="quantum-below-one"),
])
def test_each_trace_invariant_is_flagged(records, slices, message):
    problems = _flagged(records, slices)
    assert any(message in p for p in problems), problems


def test_quantum_log_is_read_off_the_cycles():
    w = benchmark_case("I")
    trace = simulate(w, make_dabrr())
    assert trace.quantum_log == ((1, 69), (2, 27), (3, 6)) and not trace.passes
    assert compute_metrics(trace, w).quanta() == (69, 27, 6)
    rr = simulate(w, make_round_robin(25))  # a trace of passes logs changes of quantum
    assert rr.passes and rr.quantum_log == ((1, 25),) and rr.slices[-1].cycle > 1


def _relabel(slices, i, cycle, quantum):
    return slices[:i] + [slices[i]._replace(cycle=cycle, quantum_in_effect=quantum)] + slices[i + 1:]


# A log naming a cycle that never ran, or listing a cycle twice, is what
# slices relabelled that way would derive; a trace refuses such slices.
@pytest.mark.parametrize("corrupt, message", [
    (lambda s: _relabel(s, 7, 9, 6),
     "slice 7 in cycle 9 at quantum 6 cannot follow cycle 2 at quantum 27"),
    (lambda s: _relabel(_relabel(s, 6, 3, 6), 7, 2, 27),
     "slice 7 in cycle 2 at quantum 27 cannot follow cycle 3 at quantum 6"),
], ids=["cycle-never-ran", "entry-repeated"])
def test_quantum_log_defects_on_case_i_are_flagged(corrupt, message):
    w = benchmark_case("I")
    good = simulate(w, make_dabrr())
    assert good.quantum_log == ((1, 69), (2, 27), (3, 6))
    with pytest.raises(TypeError):  # the log is read off the cycles, not stored
        dataclasses.replace(good, quantum_log=good.quantum_log)
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(good, slices=corrupt(list(good.slices)))


# Each mutation returns a trace's slices with one defect, or None where it
# cannot apply.
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
    return trace.slices[:i + 1] + shifted


def _swap_adjacent_slices(trace, rng):
    if len(trace.slices) < 2:
        return None
    i = rng.randrange(len(trace.slices) - 1)
    first, second = trace.slices[i:i + 2]
    return _in_its_cycles(trace, trace.slices[:i] + (second, first) + trace.slices[i + 2:])


def _delete_one_slice(trace, rng):
    i = rng.randrange(len(trace.slices))
    return _in_its_cycles(trace, trace.slices[:i] + trace.slices[i + 1:])


def _duplicate_one_slice(trace, rng):
    i = rng.randrange(len(trace.slices))
    return trace.slices[:i + 1] + trace.slices[i:]


def _change_one_slices_pid(trace, rng):
    i = rng.randrange(len(trace.slices))
    others = sorted({s.pid for s in trace.slices} - {trace.slices[i].pid})
    if not others:
        return None
    return _with_slices(trace, i, trace.slices[i]._replace(pid=rng.choice(others)))


def _rename_one_slice_to_an_unknown_pid(trace, rng):
    i = rng.randrange(len(trace.slices))  # generated pids are P1..Pn
    return _with_slices(trace, i, trace.slices[i]._replace(pid=f"X{rng.randrange(100)}"))


def _lower_one_cycles_quantum(trace, rng):
    cycle = rng.randint(1, trace.slices[-1].cycle)
    longest = max(s.end - s.start for s in trace.slices if s.cycle == cycle)
    quantum = rng.randrange(longest)
    return [s._replace(quantum_in_effect=quantum) if s.cycle == cycle else s for s in trace.slices]


def _with_slices(trace, i, replacement):
    return trace.slices[:i] + (replacement,) + trace.slices[i + 1:]


def _in_its_cycles(trace, slices):
    """``slices``, each run in the cycle, and at the quantum, of the slice
    that ``trace`` ran at its place: reordered or removed slices corrupt
    only the per-slice columns, so a trace can hold them if their times can."""
    return [s._replace(cycle=at.cycle, quantum_in_effect=at.quantum_in_effect)
            for s, at in zip(slices, trace.slices)]


def _out_of_time(slices):
    """The index of the first slice that runs less than 1 ms or starts
    before the one before it ends, or None."""
    for i, s in enumerate(slices):
        if s.end <= s.start or (i and s.start < slices[i - 1].end):
            return i
    return None


def built_or_refused(trace, slices):
    """``trace`` with ``slices``, or None once the trace has refused them,
    naming the first slice that does not run forward in time."""
    i = _out_of_time(slices)
    if i is None:
        return dataclasses.replace(trace, slices=slices)
    s = slices[i]
    with pytest.raises(ValueError, match=re.escape(f"slice {i} [{s.start},{s.end}) ")):
        dataclasses.replace(trace, slices=slices)
    return None


# Each mutation, paired with the violation it provably causes on every trace
# it applies to (every slice of a valid trace runs at least 1 ms), or with
# None where no trace can hold its slices.
_SHORT_OR_LONG = r"executed \d+ ms, burst is"
CHECKER_MUTATIONS = [
    # its process runs less than its burst; a 1 ms slice, shortened, is refused
    (_shorten_one_slice, _SHORT_OR_LONG),
    (_flip_one_completion_mark, "marked completed"),
    (_swap_adjacent_slices, None),  # the second starts before the first ends
    # the second slice's process was runnable throughout the new gap
    (_insert_gap_after_abutting_pair, "runnable"),
    (_delete_one_slice, _SHORT_OR_LONG),  # its process runs less than its burst
    (_duplicate_one_slice, None),  # the copy starts before the original ends
    (_change_one_slices_pid, _SHORT_OR_LONG),  # one process runs less, another more
    (_rename_one_slice_to_an_unknown_pid, r"slice for unknown pid 'X\d+'"),
    (_lower_one_cycles_quantum, "exceeds quantum"),  # below its longest slice
]


def test_seeded_mutated_traces_are_all_flagged():
    # every list of messages is also the pid-keyed reference walk's, order
    # included; every refusal names the first slice out of time
    applied, refused = collections.Counter(), collections.Counter()
    for seed in range(1000):
        rng = random.Random(seed)
        workload = seeded_workload(seed)
        trace = simulate(workload, standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)]))
        problems, completion, first_dispatch = _walk_trace(trace, workload)
        reference = reference_walk(trace, workload)
        assert (problems, completion, first_dispatch) == (
            [], *([found[p.pid] for p in workload] for found in reference[1:])), seed
        for mutate, violation in CHECKER_MUTATIONS:
            slices = mutate(trace, rng)
            if slices is None:
                continue
            applied[mutate] += 1
            bad = built_or_refused(trace, slices)
            if bad is None:
                refused[mutate] += 1
                continue
            assert violation is not None, f"seed {seed}: {mutate.__name__}"
            problems = trace_violations(bad, workload)
            assert problems == reference_walk(bad, workload)[0], \
                f"seed {seed}: {mutate.__name__}"
            problems = "; ".join(problems)
            assert re.search(violation, problems), f"seed {seed}: {mutate.__name__}: {problems}"
    # a swap needs two slices, a pid change two pids, a gap an abutting pair
    assert len(applied) == len(CHECKER_MUTATIONS) and min(applied.values()) >= 900
    assert set(refused) == {_swap_adjacent_slices, _duplicate_one_slice, _shorten_one_slice}
    assert refused[_shorten_one_slice] < applied[_shorten_one_slice]


# Each change returns a slice's index and a list of slices that no trace can
# hold, whose first defect is at that slice.
def _change_one_slices_cycle(slices, rng):
    i = rng.randrange(len(slices))
    before = slices[i - 1].cycle if i else 0
    # a step of neither 0 nor 1 past the slice before (the first must be cycle 1)
    cycle = before + rng.choice((-1, 2, 3, 5))
    return i, slices[:i] + (slices[i]._replace(cycle=cycle),) + slices[i + 1:]


def _inflate_one_slices_quantum(slices, rng):
    # a slice that shares its cycle with the one before it; a cycle that ran
    # one slice can take any quantum
    later = [i for i in range(1, len(slices)) if slices[i].cycle == slices[i - 1].cycle]
    if not later:
        return None
    i = rng.choice(later)
    inflated = slices[i]._replace(quantum_in_effect=slices[i].quantum_in_effect + rng.randint(1, 50))
    return i, slices[:i] + (inflated,) + slices[i + 1:]


def test_seeded_slice_lists_no_trace_can_hold_are_refused():
    applied = collections.Counter()
    for seed in range(1000):
        rng = random.Random(seed)
        trace = simulate(seeded_workload(seed), standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)]))
        for mutate in (_change_one_slices_cycle, _inflate_one_slices_quantum):
            bad = mutate(trace.slices[:], rng)
            if bad is None:
                continue
            applied[mutate] += 1
            i, slices = bad
            with pytest.raises(ValueError, match=rf"^slice {i} in cycle "):
                dataclasses.replace(trace, slices=slices)
    # 174 of the traces run one slice per cycle, so no slice's quantum can
    # disagree with its cycle's
    assert applied[_change_one_slices_cycle] == 1000
    assert applied[_inflate_one_slices_quantum] >= 800


_NAN, _INF = float("nan"), float("inf")


# Slices a trace can hold that no run writes: slices before the earliest
# arrival overlap it, and a gap runs from the later of that arrival and the
# end of the slice before it
@pytest.mark.parametrize("slices", [
    [Slice("P1", 0, 5, 1, 10, QUANTUM_EXPIRED), Slice("P2", 5, 8, 1, 10, QUANTUM_EXPIRED),
     Slice("P1", 20, 25, 2, 10, COMPLETED), Slice("P2", 25, 32, 2, 10, COMPLETED)],
    [Slice("P1", 0, 3, 1, 10, COMPLETED), Slice("P2", 6, 9, 1, 10, QUANTUM_EXPIRED),
     Slice("P2", 12, 19, 2, 10, COMPLETED)],
    [Slice("P1", 15, 25, 1, 10, COMPLETED), Slice("P2", 25, 30, 1, 10, COMPLETED)],
], ids=["before-first-arrival-then-gap", "gap-before-first-arrival", "gap-before-first-slice"])
def test_odd_hand_built_traces_get_the_reference_walks_messages(slices):
    w = validate_workload([("P1", 10, 10), ("P2", 12, 10)])
    trace = _hand_trace(slices)
    problems = trace_violations(trace, w)
    assert problems == reference_walk(trace, w)[0] and problems


# A trace holds what a run writes: a str pid, int times, cycle and quantum
# (no bool), and one of the two termination words.  Any other slice is
# refused, naming it.
def _refused(i):
    return pytest.raises(ValueError, match=rf"^slice {i} .* is not six fields: a str pid, an int "
                                           rf"start, end, cycle and quantum, and 'completed' or "
                                           rf"'quantum_expired'$")


@pytest.mark.parametrize("slices, i", [
    ([Slice("P1", _NAN, 10, 1, 10, COMPLETED), Slice("P2", 10, _NAN, 1, 10, COMPLETED)], 0),
    ([Slice("P3", _INF, _INF, 1, _INF, COMPLETED), Slice("P1", 0, _INF, 1, _INF, COMPLETED)], 0),
    ([Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 10, _NAN, 1, 10, COMPLETED)], 1),
    ([Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 10, _INF, 1, 10, COMPLETED)], 1),
    ([Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", -_INF, 20, 1, 10, COMPLETED)], 1),
    ([Slice("P1", 0.2, 0.9, 1, 10, COMPLETED)], 0),
    ([Slice("P1", 0, 5, 1, 10, QUANTUM_EXPIRED), Slice("P1", 5.0, 10, 1, 10, COMPLETED)], 1),
    ([Slice("P1", "0", "10", 1, 10, COMPLETED)], 0),
    ([Slice("P1", 0, 5.0, 1, 10, QUANTUM_EXPIRED), Slice("P1", 5, 10.5, 1, 10, COMPLETED)], 0),
    ([Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 10, 20.0, 1, 10, COMPLETED)], 1),
    ([Slice("P1", False, True, 1, 10, COMPLETED)], 0),
], ids=["nan", "inf-unknown", "nan-end", "inf-end", "minus-inf-start", "float-inexact",
        "float-start-int-end", "text", "floats", "float-end", "bool"])
def test_times_a_trace_cannot_give_back_are_refused(slices, i):
    with _refused(i):
        _hand_trace(slices)


@pytest.mark.parametrize("slices, i", [
    ([Slice("P1", 0, 10, 1, 10, "done"), Slice("P2", 10, 20, 1, 10, COMPLETED)], 0),
    ([Slice("P1", 0, 5, 1, 5, "preempted"), Slice("P1", 5, 10, 2, 5, COMPLETED)], 0),
    ([Slice("P1", 0, 5, 1, 5, None), Slice("P1", 5, 10, 2, 5, COMPLETED)], 0),
    ([Slice("P1", 0, 5, 1, 5, QUANTUM_EXPIRED), Slice(["P1"], 5, 10, 2, 5, COMPLETED)], 1),
    ([Slice(1, 0, 10, 1, 10, COMPLETED)], 0),
    ([Slice(None, 0, 10, 1, 10, COMPLETED)], 0),
    ([Slice("P1", 0, 10, 1, 10.0, COMPLETED)], 0),
    ([Slice("P1", 0, 10, 1, True, COMPLETED)], 0),
    ([Slice("P1", 0, 10, 1, "10", COMPLETED)], 0),
    ([Slice("P1", 0, 10, 1.0, 10, COMPLETED)], 0),
    ([Slice("P1", 0, 10, True, 10, COMPLETED)], 0),
    ([Slice("P1", 0, 10, 1, 10, COMPLETED), ("P2", 10, 20)], 1),
    ([Slice("P1", 0, 10, 1, 10, COMPLETED), (*Slice("P2", 10, 20, 1, 10, COMPLETED), 0)], 1),
    ([Slice("P1", 0, 10, 1, 10, COMPLETED), 7], 1),
], ids=["unknown-termination", "preempted", "none-termination", "list-pid", "int-pid", "none-pid",
        "float-quantum", "bool-quantum", "text-quantum", "float-cycle", "bool-cycle",
        "three-fields", "seven-fields", "not-iterable"])
def test_slices_a_run_cannot_write_are_refused(slices, i):
    with _refused(i):
        _hand_trace(slices)


_ODD_VALUES = st.one_of(
    st.floats(), st.sampled_from([5.0, 0.0, -0.0, _NAN, _INF, -_INF]), st.booleans(),
    st.text(max_size=3), st.none(), st.lists(st.integers(0, 9), max_size=2),
    st.sampled_from(["preempted", "done", "Completed", "quantum expired"]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 199), st.data())
def test_a_slice_with_one_odd_field_is_refused_or_judged(seed, data):
    # a field of one slice of a run's trace takes another value: an odd one,
    # or an int near its own, the end of the slice before or the start of
    # the slice after.  The trace refuses it, naming this slice or the next,
    # or the checker judges it as the reference walk does; nothing else is raised
    workload = seeded_workload(seed)
    trace = simulate(workload, standard_policy(POLICY_NAMES[seed % len(POLICY_NAMES)]))
    slices = list(trace.slices)
    i = data.draw(st.integers(0, len(slices) - 1))
    field = data.draw(st.integers(0, 5))
    own = slices[i][field]
    values = _ODD_VALUES
    if type(own) is int:
        near = [own + d for d in range(-3, 4)]
        near += [slices[i - 1].end] if i else []
        near += [slices[i + 1].start] if i + 1 < len(slices) else []
        # as often an int as not
        values = st.sampled_from(near) if data.draw(st.booleans()) \
            else st.one_of(_ODD_VALUES, st.just(float(own)))
    slices[i] = Slice(*slices[i][:field], data.draw(values), *slices[i][field + 1:])
    try:
        odd = dataclasses.replace(trace, slices=slices)
    except ValueError as refused:
        assert re.match(rf"^slice ({i}|{i + 1}) ", str(refused)), refused
        return
    assert trace_violations(odd, workload) == reference_walk(odd, workload)[0]
    try:
        compute_metrics(odd, workload)
    except InconsistentTrace:
        pass


def test_slices_listed_out_of_time_order_are_refused():
    w = benchmark_case("I")
    good = simulate(w, make_round_robin(25))
    first, second = good.slices[:2]
    with pytest.raises(ValueError, match=re.escape(
            f"slice 1 [{first.start},{first.end}) starts before {second.end}, "
            f"where the slice before it ends")):
        dataclasses.replace(good, slices=(second, first) + good.slices[2:])


def _engine_style_trace(table, index, run, termination, break_at, break_start):
    """A trace of one cycle at quantum 10, its view built as ``simulate``
    builds one, without ``SliceView.of``'s refusals: each termination
    stored as its byte, 1 for ``COMPLETED``, and for ``QUANTUM_EXPIRED`` 0
    after a run of the quantum and 2 after any other; each run with a
    nonzero byte is stored."""
    end = break_start[-1] + sum(run[break_at[-1]:])
    codes = bytearray(1 if term == COMPLETED else 0 if r == 10 else 2
                      for r, term in zip(run, termination))
    stored = [r for r, code in zip(run, codes) if code]
    return ExecutionTrace(PolicyDescriptor.of("RR", q=10), SliceView._raw(
        table, index, stored, codes, [10], [len(run)], break_at, break_start, end))


def test_the_walk_guards_a_view_built_without_refusals():
    # a zero run, then P1's whole burst
    empty = _engine_style_trace(("P1",), [0, 0], [0, 10], [QUANTUM_EXPIRED, COMPLETED], [0], [0])
    assert trace_violations(empty, validate_workload(_ONE)) == ["empty or reversed slice P1 [0,0)"]
    # a break at 5, though the slice before it ends at 10
    overlap = _engine_style_trace(("P1", "P2"), [0, 1], [10, 10], [COMPLETED] * 2, [0, 1], [0, 5])
    assert [*overlap.slices] == [Slice("P1", 0, 10, 1, 10, COMPLETED),
                                 Slice("P2", 5, 15, 1, 10, COMPLETED)]
    assert trace_violations(overlap, validate_workload(_TWO)) == [
        "interval [5,15) overlaps the previous one"]


def test_only_the_engine_builds_a_view_unchecked():
    # the overlap above, through every public path: none stores it
    lists = (("P1", "P2"), [0, 1], [10, 10], bytearray(b"\x01\x01"), [10], [2], [0, 1], [0, 5],
             15)
    with pytest.raises(TypeError, match="takes no arguments"):
        SliceView(*lists)
    overlap = [Slice("P1", 0, 10, 1, 10, COMPLETED), Slice("P2", 5, 15, 1, 10, COMPLETED)]
    refusal = re.escape("slice 1 [5,15) starts before 10, where the slice before it ends")
    for build in (SliceView.of, partial(ExecutionTrace, PolicyDescriptor.of("RR", q=10))):
        with pytest.raises(ValueError, match=refusal):
            build(overlap)
    # unchecked, it stores a reversed gap: the engine alone may build one so
    view = SliceView._raw(*lists)
    assert [s.termination for s in view] == [COMPLETED] * 2  # the column is read, not just held
    assert ExecutionTrace(PolicyDescriptor.of("RR", q=10), view).idles == (IdleGap(10, 5),)


def test_checker_runs_in_linear_time_over_many_idle_gaps():
    # each process arrives after the previous one has finished: 9,999 gaps
    w = validate_workload([(f"P{i}", 2 * i, 1) for i in range(10_000)])
    trace = simulate(w, make_round_robin(1))
    assert len(trace.idles) == 9_999
    started = time.perf_counter()
    assert trace_violations(trace, w) == []
    assert time.perf_counter() - started < 1.0

import collections
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_workload

from rrsim import simulate
from rrsim.engine import (
    CYCLE_BOUNDARY,
    SLICE_BOUNDARY_RESTART,
    CyclePlan,
    PolicyBehavior,
    ReadySnapshot,
    SnapshotEntry,
    rank_key,
)
from rrsim.policies import (
    POLICY_NAMES,
    PolicySpecError,
    alternating_min_max_order,
    make_dabrr,
    make_dqrrr,
    make_irrvq,
    make_mrr,
    make_round_robin,
    make_rp5,
    make_sarr,
    mean_quantum,
    median_quantum,
    parse_policy_spec,
    range_quantum,
    standard_policy,
)
from rrsim.workloads import (
    ALL_ZERO,
    CASE_IDS,
    RANDOM,
    STAGGERED,
    GeneratorSpec,
    benchmark_case,
    generate_workload,
)

bursts = st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=40)


# quantum values observed in the published cycle tables
@pytest.mark.parametrize("remaining,expected", [
    ((40, 55, 60, 90, 102), 69),   # 347/5 floors to 69
    ((42,), 42),
    ((32, 55, 82, 110), 69),
    ((21, 33), 27),
    ((15, 32, 102, 48, 29), 45),
])
def test_mean_quantum_golden(remaining, expected):
    assert mean_quantum(remaining) == expected


@pytest.mark.parametrize("remaining,expected", [
    ((75, 60, 43, 26), 51),        # (43+60)/2 floors to 51
    ((24, 9), 16),
    ((7,), 7),
    ((48, 60, 75, 105, 120), 75),
    ((32, 55, 82, 110), 68),
    ((90, 70, 38, 55), 62),
])
def test_median_quantum_golden(remaining, expected):
    assert median_quantum(remaining) == expected


@pytest.mark.parametrize("remaining,floor,expected", [
    ((105, 60, 120, 48, 75), 25, 72),
    ((4,), 25, 25),
    ((45,), 25, 45),
    ((28, 40), 25, 25),            # range 12 raised to the floor
    ((3, 18, 38), 25, 35),
])
def test_range_quantum_golden(remaining, floor, expected):
    assert range_quantum(remaining, floor) == expected


def _pids(items):
    return tuple(item[0] for item in items)


def test_alternating_min_max_order_golden():
    entries = [("P1", 105), ("P2", 60), ("P3", 120), ("P4", 48), ("P5", 75)]
    assert _pids(alternating_min_max_order(entries)) == ("P4", "P3", "P2", "P1", "P5")
    entries = [("P5", 26), ("P2", 75), ("P4", 43), ("P3", 60)]
    assert _pids(alternating_min_max_order(entries)) == ("P5", "P2", "P4", "P3")
    assert alternating_min_max_order([("P1", 10)]) == (("P1", 10),)


@given(bursts)
def test_mean_quantum_matches_floored_mean(values):
    assert mean_quantum(values) == max(1, sum(values) // len(values))


@given(bursts, st.randoms())
def test_quantum_helpers_are_order_insensitive(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert mean_quantum(shuffled) == mean_quantum(values)
    assert median_quantum(shuffled) == median_quantum(values)
    assert range_quantum(shuffled, 25) == range_quantum(values, 25)


@given(bursts)
def test_quantum_helpers_at_least_one(values):
    assert mean_quantum(values) >= 1
    assert median_quantum(values) >= 1
    assert range_quantum(values, 1) >= 1


@given(bursts)
def test_alternating_order_structural(values):
    entries = [(f"P{i}", v) for i, v in enumerate(values)]
    order = list(alternating_min_max_order(entries))
    unfolded = order[0::2] + order[1::2][::-1]
    expected = sorted(entries, key=lambda e: (e[1],))
    # ties keep input order, matching the stable ascending sort
    assert sorted(order) == sorted(entries)
    assert unfolded == expected


snapshots = st.builds(
    lambda items, now, cycle: ReadySnapshot(
        entries=tuple(SnapshotEntry(f"P{i + 1}", rem, arr, i, seen)
                      for i, (rem, arr, seen) in enumerate(items)),
        now=now,
        cycle_index=cycle,
    ),
    st.lists(st.tuples(st.integers(1, 500), st.integers(0, 100), st.booleans()),
             min_size=1, max_size=12),
    st.integers(0, 1000),
    st.integers(1, 20),
)

ALL_FACTORIES = [
    make_round_robin(25), make_dabrr(), make_sarr(), make_dqrrr(),
    make_irrvq(), make_rp5(25), make_mrr(25),
]


@settings(max_examples=300)
@given(snapshots, st.sampled_from(range(len(ALL_FACTORIES))))
def test_every_plan_is_a_permutation_with_positive_quantum(snapshot, idx):
    policy = ALL_FACTORIES[idx]
    plan = policy.plan(snapshot)
    assert sorted(plan.order) == sorted(snapshot.entries)
    assert {id(e) for e in plan.order} == {id(e) for e in snapshot.entries}
    assert plan.quantum >= 1


def _ascending(snapshot):
    """``snapshot`` as the engine hands it to an ascending policy."""
    return ReadySnapshot(tuple(sorted(snapshot.entries, key=rank_key)),
                         snapshot.now, snapshot.cycle_index)


@settings(max_examples=200)
@given(snapshots, st.randoms())
def test_quantum_depends_only_on_remaining_multiset(snapshot, rng):
    permuted = list(snapshot.entries)
    rng.shuffle(permuted)
    shuffled = ReadySnapshot(tuple(permuted), snapshot.now, snapshot.cycle_index)
    # An ascending policy is only ever handed a sorted queue, so it gets two
    # sorted snapshots with the same remaining multiset: the drawn one, and
    # one whose processes hold those remainings in the shuffled order.
    remainings = (e.remaining for e in permuted)
    relabelled = ReadySnapshot(
        tuple(e._replace(remaining=r) for e, r in zip(snapshot.entries, remainings)),
        snapshot.now, snapshot.cycle_index)
    for policy in ALL_FACTORIES:
        a, b = (_ascending(snapshot), _ascending(relabelled)) if policy.ascending \
            else (snapshot, shuffled)
        assert policy.plan(a).quantum == policy.plan(b).quantum


# Seeded generator shapes after the benchmark's files, at test sizes.  On
# *busy* DABRR abandons cycles for arrivals; *sparse* leaves idle gaps.
SHAPES = {
    "busy": dict(n=150, burst_max=50, arrival=STAGGERED, max_gap=8),
    "dense": dict(n=40, burst_max=500, arrival=ALL_ZERO, max_gap=0),
    "sparse": dict(n=60, burst_max=500, arrival=STAGGERED, max_gap=2000),
}


def _shaped(shape, seed, **overrides):
    return generate_workload(GeneratorSpec(burst_min=1, order=RANDOM, seed=seed,
                                           **{**SHAPES[shape], **overrides}))


def _assert_ascending_snapshots(policy, workload):
    """Simulate, asserting that every snapshot ``policy`` is handed is sorted
    by the full rank key; return the snapshots and the trace."""
    snapshots = []

    def plan(snapshot):
        assert list(snapshot.entries) == sorted(snapshot.entries, key=rank_key), \
            f"{policy.descriptor.name}: cycle {snapshot.cycle_index} at {snapshot.now}"
        snapshots.append(snapshot)
        return policy.plan(snapshot)

    return snapshots, simulate(workload, dataclasses.replace(policy, plan=plan))


@settings(max_examples=200)
@given(st.sampled_from(sorted(SHAPES)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["DABRR", "IRRVQ", "MRR"]))
def test_ascending_policies_receive_sorted_snapshots(shape, seed, name):
    _assert_ascending_snapshots(standard_policy(name), _shaped(shape, seed))


@pytest.mark.parametrize("case_id", CASE_IDS + ("ILL",))
def test_ascending_policies_receive_sorted_snapshots_on_the_fixtures(case_id):
    for name in ("DABRR", "IRRVQ", "MRR"):
        _assert_ascending_snapshots(standard_policy(name), benchmark_case(case_id))


def test_busy_runs_make_dabrr_restart_over_sorted_snapshots():
    restarts = 0
    for seed in range(5):
        snapshots, trace = _assert_ascending_snapshots(make_dabrr(), _shaped("busy", seed))
        ran = collections.Counter(s.cycle for s in trace.slices)
        restarts += sum(ran[s.cycle_index] < len(s.entries) for s in snapshots)
    assert restarts >= 100


def test_dqrrr_keeps_queue_order_without_new_arrivals():
    entries = tuple(SnapshotEntry(pid, rem, 0, i, True)
                    for i, (pid, rem) in enumerate([("P5", 42), ("P4", 30)]))
    snapshot = ReadySnapshot(entries, now=275, cycle_index=2)
    assert _pids(make_dqrrr().plan(snapshot).order) == ("P5", "P4")


def test_dqrrr_alternates_when_new_arrivals_present():
    entries = tuple(SnapshotEntry(pid, rem, arr, i, False)
                    for i, (pid, rem, arr) in enumerate(
                        [("P2", 75, 2), ("P3", 60, 4), ("P4", 43, 8), ("P5", 26, 16)]))
    snapshot = ReadySnapshot(entries, now=95, cycle_index=2)
    assert _pids(make_dqrrr().plan(snapshot).order) == ("P5", "P2", "P4", "P3")


def test_rp5_quantum_doubles_with_cycle_index():
    policy = make_rp5(25)
    entry = (SnapshotEntry("P1", 1000, 0, 0, True),)
    for cycle, expected in [(1, 25), (2, 50), (3, 100), (4, 200)]:
        snapshot = ReadySnapshot(entry, now=0, cycle_index=cycle)
        assert policy.plan(snapshot).quantum == expected


def test_parse_policy_spec_round_trip():
    for text, name in [("rr:q=25", "RR"), ("dabrr", "DABRR"), ("sarr", "SARR"),
                       ("dqrrr", "DQRRR"), ("irrvq", "IRRVQ"),
                       ("rp5:base=25", "RP5"), ("mrr:floor=25", "MRR")]:
        policy = parse_policy_spec(text)
        assert policy.descriptor.name == name
        assert policy.descriptor.spec_string() == text
        assert parse_policy_spec(policy.descriptor.spec_string()).descriptor \
            == policy.descriptor


def test_parse_policy_spec_defaults_match_benchmark_parameters():
    assert parse_policy_spec("rr").descriptor.parameters == (("q", 25),)
    assert parse_policy_spec("rp5").descriptor.parameters == (("base", 25),)
    assert parse_policy_spec("mrr").descriptor.parameters == (("floor", 25),)
    assert parse_policy_spec("RR:q=40").descriptor.parameters == (("q", 40),)


@pytest.mark.parametrize("bad", ["nope", "rr:quantum=9", "rr:q=abc", "mrr:floor=",
                                 "rr:q=25,q=30", "rr:q=1_0", "rr:q=+5", "rr:q=\u0663"])
def test_parse_policy_spec_rejects_garbage(bad):
    with pytest.raises(PolicySpecError):
        parse_policy_spec(bad)


def test_policy_parameter_is_an_optional_minus_and_ascii_digits():
    assert parse_policy_spec("rr:q= 40 ").descriptor.parameters == (("q", 40),)
    with pytest.raises(PolicySpecError, match="^parameter 'q' of policy rr must be an "
                                              "integer, got '\u0662_5'$"):
        parse_policy_spec("rr:q=\u0662_5")


def test_standard_policy_covers_canonical_names():
    for name in POLICY_NAMES:
        assert standard_policy(name).descriptor.name == name


def test_policy_names_are_in_report_order():
    assert POLICY_NAMES == ("RR", "DQRRR", "IRRVQ", "SARR", "RP5", "MRR", "DABRR")


def test_unknown_policy_message_lists_the_names_sorted():
    with pytest.raises(PolicySpecError, match="^unknown policy 'nosuch'; expected one of "
                                              "dabrr, dqrrr, irrvq, mrr, rp5, rr, sarr$"):
        parse_policy_spec("nosuch")


def _sorting_planners():
    """DABRR, IRRVQ and MRR as they planned before the engine kept their queue
    ascending: each sorts every snapshot itself.  None declares an ascending
    queue, so the engine checks each order as a permutation of the queue."""
    def ranked(snapshot):
        return sorted(snapshot.entries, key=lambda e: (e.remaining, e.arrival, e.submission_index))

    def dabrr(snapshot):
        order = ranked(snapshot)
        return CyclePlan(order, mean_quantum(e.remaining for e in order))

    def irrvq(snapshot):
        order = ranked(snapshot)
        return CyclePlan(order, order[0].remaining)

    def mrr(snapshot):
        order = ranked(snapshot)
        return CyclePlan(order, range_quantum((e.remaining for e in order), 25))

    return [
        (make_dabrr(), PolicyBehavior(make_dabrr().descriptor, dabrr, SLICE_BOUNDARY_RESTART)),
        (make_irrvq(), PolicyBehavior(make_irrvq().descriptor, irrvq, CYCLE_BOUNDARY)),
        (make_mrr(25), PolicyBehavior(make_mrr(25).descriptor, mrr, CYCLE_BOUNDARY)),
    ]


def _differential_workloads():
    yield from (benchmark_case(case_id) for case_id in CASE_IDS + ("ILL",))
    yield from (seeded_workload(seed, max_n=40) for seed in range(200))
    # n of a few hundred with gaps <= 8: DABRR abandons a cycle on most arrivals
    yield from (_shaped("busy", seed, n=100 + 10 * seed) for seed in range(20))


def test_ascending_queue_gives_the_traces_of_planners_that_sort():
    for workload in _differential_workloads():
        for shipped, sorting in _sorting_planners():
            new, old = simulate(workload, shipped), simulate(workload, sorting)
            where = f"{shipped.descriptor.name} on {workload.label}"
            for i, (a, b) in enumerate(zip(new.slices, old.slices)):
                assert a == b, f"{where}: slice {i} differs"
            assert len(new.slices) == len(old.slices), where
            assert new.quantum_log == old.quantum_log, where
            assert new == old, where

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsim import validate_workload
from rrsim.workloads import (
    ALL_ZERO,
    ASCENDING,
    CASE_IDS,
    DESCENDING,
    RANDOM,
    STAGGERED,
    GeneratorSpec,
    benchmark_case,
    generate_workload,
)


def test_case_fixtures_match_published_inputs():
    w = benchmark_case("I")
    assert [(p.pid, p.arrival, p.burst) for p in w] == [
        ("P1", 0, 40), ("P2", 0, 55), ("P3", 0, 60), ("P4", 0, 90), ("P5", 0, 102)]
    w = benchmark_case("IV")
    assert [(p.arrival, p.burst) for p in w] == [
        (0, 27), (3, 32), (5, 55), (7, 82), (9, 110)]
    w = benchmark_case("VI")
    assert [(p.arrival, p.burst) for p in w] == [
        (0, 45), (5, 90), (8, 70), (15, 38), (20, 55)]
    w = benchmark_case("ILL")
    assert [p.burst for p in w] == [15, 32, 102, 48, 29]


def test_every_fixture_validates():
    for case_id in CASE_IDS + ("ILL",):
        w = benchmark_case(case_id)
        revalidated = validate_workload(
            [(p.pid, p.arrival, p.burst) for p in w], label=w.label)
        assert revalidated.processes == w.processes


def test_unknown_case_raises():
    with pytest.raises(KeyError):
        benchmark_case("VII")


def test_generator_is_deterministic_in_seed():
    spec = GeneratorSpec(n=5, burst_min=20, burst_max=120,
                         order=ASCENDING, arrival=ALL_ZERO, seed=7)
    first = generate_workload(spec)
    second = generate_workload(spec)
    assert first == second
    assert [p.burst for p in first] == sorted(p.burst for p in first)
    assert all(p.arrival == 0 for p in first)
    assert [p.pid for p in first] == ["P1", "P2", "P3", "P4", "P5"]


def test_generator_large_staggered_workload_is_valid():
    spec = GeneratorSpec(n=1000, burst_min=1, burst_max=500,
                         order=RANDOM, arrival=STAGGERED, max_gap=50, seed=42)
    w = generate_workload(spec)
    assert len(w) == 1000
    arrivals = [p.arrival for p in w]
    assert arrivals == sorted(arrivals)


@pytest.mark.parametrize("kwargs", [
    dict(n=0, burst_min=1, burst_max=5),
    dict(n=3, burst_min=0, burst_max=5),
    dict(n=3, burst_min=6, burst_max=5),
    dict(n=3, burst_min=1, burst_max=5, order="sideways"),
    dict(n=3, burst_min=1, burst_max=5, arrival="sometime"),
    dict(n=2.5, burst_min=1, burst_max=9),
    dict(n=True, burst_min=1, burst_max=9),
    dict(n=3, burst_min=1.5, burst_max=9),
    dict(n=3, burst_min=1, burst_max=9.0),
    dict(n=3, burst_min=1, burst_max=5, arrival=STAGGERED, max_gap=2.0),
    dict(n=3, burst_min=1, burst_max=5, seed=None),
    dict(n=3, burst_min=1, burst_max=5, seed=False),
])
def test_generator_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        GeneratorSpec(**kwargs)


@pytest.mark.parametrize("build", [
    lambda: GeneratorSpec(5, 1, 9)._replace(n=0),
    lambda: GeneratorSpec(5, 1, 9)._replace(burst_min=10),
    lambda: GeneratorSpec(5, 1, 9, STAGGERED, max_gap=3)._replace(max_gap=-1),
    lambda: GeneratorSpec._make((5, 1, 9, "sideways", ALL_ZERO, 0, 0)),
    lambda: GeneratorSpec(5, 1, 9)._replace(seed=None),
    lambda: GeneratorSpec._make((5.0, 1, 9, RANDOM, ALL_ZERO, 0, 0)),
], ids=["replace-n", "replace-burst-min", "replace-max-gap", "make-order", "replace-seed-none",
        "make-float-n"])
def test_generator_spec_copies_are_checked_like_the_constructor(build):
    with pytest.raises(ValueError):
        build()


def test_generator_spec_is_a_checked_named_tuple():
    spec = GeneratorSpec(5, 1, 9)
    assert spec == (5, 1, 9, RANDOM, ALL_ZERO, 0, 0)
    assert spec._replace(seed=3) == GeneratorSpec._make((5, 1, 9, RANDOM, ALL_ZERO, 0, 3))
    assert type(spec._replace(seed=3)) is GeneratorSpec
    with pytest.raises(TypeError):
        GeneratorSpec._make((5, 1, 9))  # ``_make`` takes every field, defaults or not


@settings(max_examples=200)
@given(
    n=st.integers(1, 30),
    burst_min=st.integers(1, 50),
    spread=st.integers(0, 100),
    order=st.sampled_from((ASCENDING, DESCENDING, RANDOM)),
    staggered=st.booleans(),
    max_gap=st.integers(0, 60),
    seed=st.integers(0, 2**64 - 1),
)
def test_generator_respects_spec_for_all_seeds(n, burst_min, spread, order,
                                               staggered, max_gap, seed):
    spec = GeneratorSpec(
        n=n, burst_min=burst_min, burst_max=burst_min + spread, order=order,
        arrival=STAGGERED if staggered else ALL_ZERO,
        max_gap=max_gap if staggered else 0, seed=seed)
    w = generate_workload(spec)
    assert len(w) == n
    bursts = [p.burst for p in w]
    assert all(burst_min <= b <= burst_min + spread for b in bursts)
    if order == ASCENDING:
        assert bursts == sorted(bursts)
    elif order == DESCENDING:
        assert bursts == sorted(bursts, reverse=True)
    arrivals = [p.arrival for p in w]
    if staggered:
        assert arrivals == sorted(arrivals)
    else:
        assert set(arrivals) == {0}

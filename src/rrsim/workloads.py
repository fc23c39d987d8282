"""Workload inputs: the paper's benchmark fixtures and a seeded generator.

The six benchmark cases split by arrival time (all zero vs staggered) and
burst order (ascending, descending, random).  ``ILL`` is the small
five-process walkthrough workload used by the DABRR illustration test.
The values the paper publishes for these cases live in
:mod:`rrsim.reproduce`.
"""
from __future__ import annotations

import random
from typing import NamedTuple

from .model import Workload, _validate_columns

CASE_IDS = ("I", "II", "III", "IV", "V", "VI")
ZERO_ARRIVAL_CASES = ("I", "II", "III")
NONZERO_ARRIVAL_CASES = ("IV", "V", "VI")

_CASES = {
    # pid, arrival ms, burst ms; submission order as published
    "I": [("P1", 0, 40), ("P2", 0, 55), ("P3", 0, 60), ("P4", 0, 90), ("P5", 0, 102)],
    "II": [("P1", 0, 105), ("P2", 0, 85), ("P3", 0, 55), ("P4", 0, 43), ("P5", 0, 35)],
    "III": [("P1", 0, 105), ("P2", 0, 60), ("P3", 0, 120), ("P4", 0, 48), ("P5", 0, 75)],
    "IV": [("P1", 0, 27), ("P2", 3, 32), ("P3", 5, 55), ("P4", 7, 82), ("P5", 9, 110)],
    "V": [("P1", 0, 95), ("P2", 2, 75), ("P3", 4, 60), ("P4", 8, 43), ("P5", 16, 26)],
    "VI": [("P1", 0, 45), ("P2", 5, 90), ("P3", 8, 70), ("P4", 15, 38), ("P5", 20, 55)],
    "ILL": [("P1", 0, 15), ("P2", 0, 32), ("P3", 0, 102), ("P4", 0, 48), ("P5", 0, 29)],
}


def benchmark_case(case_id: str) -> Workload:
    """Return one of the built-in fixtures (``I``..``VI`` or ``ILL``)."""
    try:
        records = _CASES[case_id]
    except KeyError:
        raise KeyError(f"unknown case {case_id!r}; expected one of "
                       f"{', '.join(_CASES)}") from None
    return _validate_columns(*zip(*records), label=f"case {case_id}")


ASCENDING = "ascending"
DESCENDING = "descending"
RANDOM = "random"
ALL_ZERO = "all_zero"
STAGGERED = "staggered"


class _GeneratorFields(NamedTuple):
    n: int
    burst_min: int
    burst_max: int
    order: str = RANDOM            # ascending / descending / random
    arrival: str = ALL_ZERO        # all_zero / staggered
    max_gap: int = 0               # staggered only: max per-process gap, ms
    seed: int = 0


class GeneratorSpec(_GeneratorFields):
    """Parameters for the seeded random workload generator.

    A named tuple that checks its parameters however it is built: called,
    through ``_make`` or through ``_replace``.  Every field but ``order``
    and ``arrival`` must be an ``int``, not a ``bool`` or ``None``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        for name in ("n", "burst_min", "burst_max", "max_gap", "seed"):
            if type(getattr(spec, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(spec, name)!r}")
        if spec.n < 1:
            raise ValueError(f"n must be >= 1, got {spec.n}")
        if not 1 <= spec.burst_min <= spec.burst_max:
            raise ValueError(
                f"need 1 <= burst_min <= burst_max, got {spec.burst_min}..{spec.burst_max}")
        if spec.order not in (ASCENDING, DESCENDING, RANDOM):
            raise ValueError(f"unknown order {spec.order!r}")
        if spec.arrival not in (ALL_ZERO, STAGGERED):
            raise ValueError(f"unknown arrival mode {spec.arrival!r}")
        if spec.arrival == STAGGERED and spec.max_gap < 0:
            raise ValueError(f"max_gap must be >= 0, got {spec.max_gap}")
        return spec

    @classmethod
    def _make(cls, iterable):  # ``_replace`` builds through ``_make`` too
        return cls(*super()._make(iterable))


def generate_workload(spec: GeneratorSpec) -> Workload:
    """Deterministically generate a workload from ``spec``.

    Bursts are uniform in [burst_min, burst_max] and then ordered as
    requested; staggered arrivals accumulate uniform gaps in [0, max_gap]
    so they are non-decreasing in submission order.
    """
    rng = random.Random(spec.seed)
    bursts = [rng.randint(spec.burst_min, spec.burst_max) for _ in range(spec.n)]
    if spec.order == ASCENDING:
        bursts.sort()
    elif spec.order == DESCENDING:
        bursts.sort(reverse=True)

    if spec.arrival == ALL_ZERO:
        arrivals = [0] * spec.n
    else:
        arrivals = []
        t = 0
        for _ in range(spec.n):
            t += rng.randint(0, spec.max_gap)
            arrivals.append(t)

    pids = [f"P{i + 1}" for i in range(spec.n)]
    label = (f"generated n={spec.n} burst={spec.burst_min}..{spec.burst_max} "
             f"{spec.order} {spec.arrival} seed={spec.seed}")
    return _validate_columns(pids, arrivals, bursts, label)

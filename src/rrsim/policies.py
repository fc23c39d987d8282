"""The seven scheduling policies and their quantum/ordering rules.

Quantum helpers work on the multiset of remaining bursts and always
return at least 1.  Every dynamic quantum uses floor division.  DABRR,
IRRVQ and MRR declare an ascending queue, which the engine keeps sorted by
``engine.rank_key``, and dispatch it as it stands; DQRRR sorts by that key.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from .engine import (
    CYCLE_BOUNDARY,
    SLICE_BOUNDARY_RESTART,
    TAIL_REJOIN,
    CyclePlan,
    PolicyBehavior,
    ReadySnapshot,
    rank_key,
)
from .model import PolicyDescriptor, decimal_int

class PolicySpecError(ValueError):
    """A policy spec string could not be parsed."""


def mean_quantum(remaining: Iterable[int]) -> int:
    """Floor of the mean remaining burst, at least 1."""
    values = list(remaining)
    return max(1, sum(values) // len(values))


def median_quantum(remaining: Iterable[int]) -> int:
    """Floor of the median remaining burst, at least 1.

    Even counts take the floored mean of the two middle elements.
    """
    values = sorted(remaining)
    mid = len(values) // 2
    if len(values) % 2:
        result = values[mid]
    else:
        result = (values[mid - 1] + values[mid]) // 2
    return max(1, result)


def range_quantum(remaining: Iterable[int], floor: int) -> int:
    """Max minus min remaining burst, never below ``floor``.

    A single survivor gets the larger of its remaining burst and the
    floor, so it finishes in one slice whenever it can.
    """
    values = list(remaining)
    if len(values) == 1:
        return max(values[0], floor)
    return max(max(values) - min(values), floor)


def alternating_min_max_order(items: Sequence) -> tuple:
    """Reorder ``items`` as lowest, highest, 2nd lowest, 2nd highest, ...

    Each item's ``[1]`` is its remaining burst, as in a
    :class:`SnapshotEntry` or a (pid, remaining) pair; equal remainings
    keep their input order.  Reading the result at even positions and then
    at odd positions reversed gives back the ascending sort.
    """
    ranked = sorted(items, key=itemgetter(1))  # stable, so ties keep input order
    half = (len(ranked) + 1) // 2
    order = list(ranked)
    order[::2], order[1::2] = ranked[:half], ranked[half:][::-1]
    return tuple(order)


def make_round_robin(q: int) -> PolicyBehavior:
    """Classic round robin with a constant quantum ``q``."""
    if q < 1:
        raise PolicySpecError(f"rr quantum must be >= 1, got {q}")
    descriptor = PolicyDescriptor.of("RR", q=q)

    def plan(snapshot: ReadySnapshot) -> CyclePlan:
        return CyclePlan(snapshot.entries, q)

    return PolicyBehavior(descriptor, plan, TAIL_REJOIN)


def make_dabrr() -> PolicyBehavior:
    """Mean-of-remaining quantum over the ascending queue.

    Replans immediately (at the next slice boundary) whenever a new
    process arrives, instead of waiting for the cycle to finish.
    """
    descriptor = PolicyDescriptor.of("DABRR")

    def plan(snapshot: ReadySnapshot) -> CyclePlan:
        return CyclePlan(snapshot.entries, mean_quantum(map(itemgetter(1), snapshot.entries)))

    return PolicyBehavior(descriptor, plan, SLICE_BOUNDARY_RESTART, ascending=True)


def make_sarr() -> PolicyBehavior:
    """Median-of-remaining quantum over the FIFO queue order."""
    descriptor = PolicyDescriptor.of("SARR")

    def plan(snapshot: ReadySnapshot) -> CyclePlan:
        return CyclePlan(snapshot.entries,
                         median_quantum(e.remaining for e in snapshot.entries))

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY)


def make_dqrrr() -> PolicyBehavior:
    """Median quantum with min/max alternation on arrival cycles.

    Cycles that contain newly arrived processes are rearranged as
    lowest, highest, 2nd lowest, ...; cycles without new arrivals keep
    the requeue order.
    """
    descriptor = PolicyDescriptor.of("DQRRR")

    def plan(snapshot: ReadySnapshot) -> CyclePlan:
        order = snapshot.entries
        if not all(e.dispatched_before for e in order):
            order = alternating_min_max_order(sorted(order, key=rank_key))
        return CyclePlan(order, median_quantum(e.remaining for e in snapshot.entries))

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY)


def make_irrvq() -> PolicyBehavior:
    """Shortest remaining burst as quantum, ascending order.

    The shortest process always finishes, so there are at most as many
    cycles as processes.
    """
    descriptor = PolicyDescriptor.of("IRRVQ")

    def plan(snapshot: ReadySnapshot) -> CyclePlan:
        return CyclePlan(snapshot.entries, snapshot.entries[0].remaining)

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY, ascending=True)


def make_rp5(base: int) -> PolicyBehavior:
    """Quantum doubling each cycle from ``base``, FIFO queue order."""
    if base < 1:
        raise PolicySpecError(f"rp5 base must be >= 1, got {base}")
    descriptor = PolicyDescriptor.of("RP5", base=base)

    def plan(snapshot: ReadySnapshot) -> CyclePlan:
        return CyclePlan(snapshot.entries, base << (snapshot.cycle_index - 1))

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY)


def make_mrr(floor: int) -> PolicyBehavior:
    """Max-minus-min quantum with a lower bound, ascending order."""
    if floor < 1:
        raise PolicySpecError(f"mrr floor must be >= 1, got {floor}")
    descriptor = PolicyDescriptor.of("MRR", floor=floor)

    def plan(snapshot: ReadySnapshot) -> CyclePlan:
        entries = snapshot.entries
        return CyclePlan(entries, range_quantum(map(itemgetter(1), entries), floor))

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY, ascending=True)


# CLI-facing policy registry, in report order.  Paper-style
# parameterization is the default: rr:q=25, rp5:base=25, mrr:floor=25.
_FACTORIES = {
    "rr": (make_round_robin, {"q": 25}),
    "dqrrr": (make_dqrrr, {}),
    "irrvq": (make_irrvq, {}),
    "sarr": (make_sarr, {}),
    "rp5": (make_rp5, {"base": 25}),
    "mrr": (make_mrr, {"floor": 25}),
    "dabrr": (make_dabrr, {}),
}
POLICY_NAMES = tuple(k.upper() for k in _FACTORIES)


def parse_policy_spec(text: str) -> PolicyBehavior:
    """Build a policy from a spec string such as ``rr:q=25`` or ``dabrr``.

    Parameters are comma-separated ``key=value`` pairs after a colon;
    omitted parameters fall back to the defaults above.
    """
    name, _, param_text = text.strip().partition(":")
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise PolicySpecError(
            f"unknown policy {name!r}; expected one of {', '.join(sorted(_FACTORIES))}")
    factory, defaults = _FACTORIES[key]
    given = {}
    if param_text:
        for item in param_text.split(","):
            pkey, eq, value = item.partition("=")
            pkey = pkey.strip()
            if not eq or pkey not in defaults:
                raise PolicySpecError(f"bad parameter {item!r} for policy {key}")
            if pkey in given:
                raise PolicySpecError(f"parameter {pkey!r} of policy {key} is repeated")
            try:
                given[pkey] = decimal_int(value.strip())
            except ValueError:
                raise PolicySpecError(
                    f"parameter {pkey!r} of policy {key} must be an integer, "
                    f"got {value!r}") from None
    return factory(**{**defaults, **given})


def standard_policy(name: str) -> PolicyBehavior:
    """The benchmark parameterization of a policy, by canonical name."""
    return parse_policy_spec(name.lower())

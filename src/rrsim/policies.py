"""The seven scheduling policies and their quantum/ordering rules.

Each policy's ``plan`` returns a plain ``(order, quantum)`` tuple.
Quantum helpers work on the multiset of remaining bursts and always
return at least 1.  Every dynamic quantum uses floor division, and every
quantum is read from the snapshot's ``entries.remaining`` column.  DABRR,
IRRVQ and MRR declare an ascending queue, which the engine keeps sorted by
``engine.rank_order``, and dispatch it as it stands; DQRRR ranks the queue
positions in that order.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .engine import (
    CYCLE_BOUNDARY,
    SLICE_BOUNDARY_RESTART,
    TAIL_REJOIN,
    PolicyBehavior,
    ReadySnapshot,
    rank_order,
)
from .model import PolicyDescriptor, decimal_int


class PolicySpecError(ValueError):
    """A policy spec string could not be parsed."""


def mean_quantum(remaining: Sequence[int]) -> int:
    """Floor of the mean remaining burst, at least 1."""
    return max(1, sum(remaining) // len(remaining))


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


def range_quantum(remaining: Sequence[int], floor: int) -> int:
    """Max minus min remaining burst, never below ``floor``.

    A single survivor gets the larger of its remaining burst and the
    floor, so it finishes in one slice whenever it can.
    """
    if len(remaining) == 1:
        return max(remaining[0], floor)
    return max(max(remaining) - min(remaining), floor)


def alternating_min_max_order(ranked: Sequence) -> list:
    """Reorder an ascending ``ranked`` as lowest, highest, 2nd lowest, ...

    Reading the result at even positions and then at odd positions
    reversed gives back ``ranked``.
    """
    half = (len(ranked) + 1) // 2
    order = list(ranked)
    order[::2], order[1::2] = ranked[:half], ranked[half:][::-1]
    return order


def make_round_robin(q: int) -> PolicyBehavior:
    """Classic round robin with a constant quantum ``q``."""
    if q < 1:
        raise PolicySpecError(f"rr quantum must be >= 1, got {q}")
    descriptor = PolicyDescriptor.of("RR", q=q)

    def plan(snapshot: ReadySnapshot) -> tuple:
        return snapshot.entries, q

    return PolicyBehavior(descriptor, plan, TAIL_REJOIN)


def make_dabrr() -> PolicyBehavior:
    """Mean-of-remaining quantum over the ascending queue.

    Replans immediately (at the next slice boundary) whenever a new
    process arrives, instead of waiting for the cycle to finish.
    """
    descriptor = PolicyDescriptor.of("DABRR")

    def plan(snapshot: ReadySnapshot) -> tuple:
        return snapshot.entries, mean_quantum(snapshot.entries.remaining)

    return PolicyBehavior(descriptor, plan, SLICE_BOUNDARY_RESTART, ascending=True)


def make_sarr() -> PolicyBehavior:
    """Median-of-remaining quantum over the FIFO queue order."""
    descriptor = PolicyDescriptor.of("SARR")

    def plan(snapshot: ReadySnapshot) -> tuple:
        return snapshot.entries, median_quantum(snapshot.entries.remaining)

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY)


def make_dqrrr() -> PolicyBehavior:
    """Median quantum with min/max alternation on arrival cycles.

    Cycles that contain newly arrived processes are rearranged as
    lowest, highest, 2nd lowest, ...; cycles without new arrivals keep
    the requeue order.
    """
    descriptor = PolicyDescriptor.of("DQRRR")

    def plan(snapshot: ReadySnapshot) -> tuple:
        entries = order = snapshot.entries
        # a queue of one has no other order to take
        if len(entries) > 1 and not all(entries.dispatched_before):
            order = alternating_min_max_order(rank_order(entries))
        return order, median_quantum(entries.remaining)

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY)


def make_irrvq() -> PolicyBehavior:
    """Shortest remaining burst as quantum, ascending order.

    The shortest process always finishes, so there are at most as many
    cycles as processes.
    """
    descriptor = PolicyDescriptor.of("IRRVQ")

    def plan(snapshot: ReadySnapshot) -> tuple:
        return snapshot.entries, snapshot.entries.remaining[0]

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY, ascending=True)


def make_rp5(base: int) -> PolicyBehavior:
    """Quantum doubling each cycle from ``base``, FIFO queue order."""
    if base < 1:
        raise PolicySpecError(f"rp5 base must be >= 1, got {base}")
    descriptor = PolicyDescriptor.of("RP5", base=base)

    def plan(snapshot: ReadySnapshot) -> tuple:
        return snapshot.entries, base << (snapshot.cycle_index - 1)

    return PolicyBehavior(descriptor, plan, CYCLE_BOUNDARY)


def make_mrr(floor: int) -> PolicyBehavior:
    """Max-minus-min quantum with a lower bound, ascending order."""
    if floor < 1:
        raise PolicySpecError(f"mrr floor must be >= 1, got {floor}")
    descriptor = PolicyDescriptor.of("MRR", floor=floor)

    def plan(snapshot: ReadySnapshot) -> tuple:
        return snapshot.entries, range_quantum(snapshot.entries.remaining, floor)

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

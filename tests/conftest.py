import os
import random
from pathlib import Path

import pytest

from rrsim.workloads import (
    ALL_ZERO,
    ASCENDING,
    DESCENDING,
    RANDOM,
    STAGGERED,
    GeneratorSpec,
    generate_workload,
)

ORDERS = (ASCENDING, DESCENDING, RANDOM)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _checkout_on_child_pythonpath():
    """The CLI tests run `python -m rrsim` in a child process; let it import
    the checkout's package, as pyproject's `pythonpath` does for pytest."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


def seeded_workload(seed: int, max_n: int = 12, max_burst: int = 200):
    """Small random workload, deterministic in ``seed``.

    Mixes sizes, burst ranges, orders and arrival patterns so fuzz suites
    exercise idle gaps, mid-cycle arrivals and burst ties.
    """
    rng = random.Random((seed * 0x9E3779B9) & 0xFFFFFFFF)
    staggered = rng.random() < 0.5
    spec = GeneratorSpec(
        n=rng.randint(1, max_n),
        burst_min=1,
        burst_max=rng.randint(1, max_burst),
        order=ORDERS[rng.randrange(3)],
        arrival=STAGGERED if staggered else ALL_ZERO,
        max_gap=rng.randint(0, 50) if staggered else 0,
        seed=seed,
    )
    return generate_workload(spec)


def completion_times(trace):
    """Each pid's completion time: the end of its last listed slice."""
    return {s.pid: s.end for s in trace.slices}


def first_divergence(engine, oracle):
    """Among the pids whose engine and oracle completion times differ, the
    one the oracle completes first, named with both times; None if they agree."""
    differing = [pid for pid in engine.keys() | oracle.keys()
                 if engine.get(pid) != oracle.get(pid)]
    if not differing:
        return None
    pid = min(differing, key=lambda p: (oracle.get(p, float("inf")), p))
    return (f"{pid} completes at {engine.get(pid)} in the engine, "
            f"{oracle.get(pid)} in the oracle")

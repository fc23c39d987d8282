"""The benchmark's workloads: the input files each one generates from a
seed, and the rrsim commands (jobs) it runs over them.

Every job is a command a user types, run in-process as
``rrsim.cli.main(argv)``.  Why each workload exists is recorded in
BENCHMARK.json and README.md.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from rrsim.fileio import CSV, serialize_workload
from rrsim.workloads import ALL_ZERO, RANDOM, STAGGERED, GeneratorSpec, generate_workload

POLICIES = ("rr", "dqrrr", "irrvq", "sarr", "rp5", "mrr", "dabrr")
CASES = ("I", "II", "III", "IV", "V", "VI", "ILL")

TINY_N = 20  # process count of every generated file in the smoke-test size


@dataclass(frozen=True)
class InputFile:
    stem: str
    n: int
    burst_max: int
    arrival: str
    max_gap: int


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    input: str | None = None   # stem of the generated file it reads
    policy: str | None = None  # policy of a `run` job


INPUTS = {
    "paper": (),
    "dense": (InputFile("dense", 1000, 500, ALL_ZERO, 0),),
    "arrivals": (InputFile("busy", 1500, 50, STAGGERED, 8),
                 InputFile("sparse", 1000, 500, STAGGERED, 2000)),
}


def generate_inputs(workload: str, seed: int, workdir: Path, tiny: bool) -> dict[str, bytes]:
    """Write the workload's input files into ``workdir``; return their bytes by stem."""
    written = {}
    for spec in INPUTS[workload]:
        data = serialize_workload(generate_workload(GeneratorSpec(
            n=TINY_N if tiny else spec.n, burst_min=1, burst_max=spec.burst_max,
            order=RANDOM, arrival=spec.arrival, max_gap=spec.max_gap, seed=seed)), CSV)
        (workdir / f"{spec.stem}.csv").write_bytes(data)
        written[spec.stem] = data
    return written


def _paper_jobs() -> list[Job]:
    jobs = [Job("reproduce-paper", ("reproduce-paper", "--format", "json")),
            Job("export-figures", ("export-figures",))]
    for case in CASES:
        jobs.append(Job(f"compare {case}", ("compare", "--workload", f"case:{case}",
                                            "--algos", ",".join(POLICIES))))
    for case in CASES:
        for policy in POLICIES:
            jobs.append(Job(f"run {policy} {case}",
                            ("run", "--algo", policy, "--workload", f"case:{case}",
                             "--format", "json", "--gantt")))
    return jobs


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The jobs of one pass.  On ``paper`` the seed only shuffles their order,
    since its inputs are the fixed fixtures."""
    if workload == "paper":
        jobs = _paper_jobs()
        random.Random(seed).shuffle(jobs)
        return jobs
    return [Job(f"run {policy} {spec.stem}",
                ("run", "--algo", policy, "--workload", str(workdir / f"{spec.stem}.csv"),
                 "--format", "json"),
                input=spec.stem, policy=policy)
            for spec in INPUTS[workload] for policy in POLICIES]

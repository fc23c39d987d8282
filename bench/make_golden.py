"""Record golden stdout digests for the benchmark's jobs.

    python3 bench/make_golden.py

Run this only on a commit whose outputs are known to be right: it
records the paper jobs' outputs as they are (after checking the
reproduce-paper summary and every exit code), and for each default seed
the outputs of the generated-input jobs, each validated by
checks.run_json_problem first.  Writes bench/golden.json.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rrsim.cli  # noqa: E402

from checks import GOLDEN_PATH, REPRODUCE_SUMMARY, digest, run_json_problem  # noqa: E402
from jobs import INPUTS, generate_inputs, make_jobs  # noqa: E402
from run import JOB_TIMEOUT_S, run_job  # noqa: E402

DEFAULT_SEEDS = range(16)


def outputs(jobs):
    for job in jobs:
        failure, stdout, _ = run_job(rrsim.cli.main, job.argv, JOB_TIMEOUT_S)
        if failure is not None:
            sys.exit(f"{job.name}: {failure}")
        yield job, stdout


def main() -> None:
    paper = {}
    for job, stdout in outputs(make_jobs("paper", 0, ROOT)):
        if job.name == "reproduce-paper" and json.loads(stdout)["summary"] != REPRODUCE_SUMMARY:
            sys.exit(f"reproduce-paper summary is not {REPRODUCE_SUMMARY}")
        paper[job.name] = digest(stdout)

    generated: dict[str, dict[str, str]] = {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        workdir = Path(tmp)
        for seed in DEFAULT_SEEDS:
            for workload in (w for w in INPUTS if INPUTS[w]):
                inputs = generate_inputs(workload, seed, workdir, tiny=False)
                for job, stdout in outputs(make_jobs(workload, seed, workdir)):
                    problem = run_json_problem(stdout, job.policy, job.input, inputs[job.input])
                    if problem:
                        sys.exit(f"seed {seed} {job.name}: {problem}")
                    generated.setdefault(digest(inputs[job.input]), {})[job.name] = digest(stdout)
            print(f"seed {seed} recorded", flush=True)

    GOLDEN_PATH.write_text(json.dumps(
        {"seeds": list(DEFAULT_SEEDS), "paper": dict(sorted(paper.items())),
         "generated": generated}, indent=1) + "\n")


if __name__ == "__main__":
    main()

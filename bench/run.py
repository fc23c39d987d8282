"""rrsim benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload {paper,dense,arrivals} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up generates the workload's input
files from the seed.  With ``--trace 0`` the run times untraced passes
over the workload's jobs for ``--seconds`` seconds, makes one untimed
pass under ``tracemalloc`` halfway for the heap peak, and reports the
end-to-end metrics.  With ``--trace 1`` it times traced passes instead
and reports the per-layer metrics.  ``--seconds`` bounds the timed
passes only (the last one may run past it); set-ups and the untimed
``tracemalloc`` pass come on top.  Every job's output is checked; the
last line of stdout is the JSON result.

Every time reported is scaled to a reference host speed by a fixed loop
timed between jobs (calibration.py), because the host's own speed drifts
by a quarter and more within minutes.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("paper", "dense", "arrivals")
JOB_TIMEOUT_S = 30.0     # a job over this is recorded as `timeout` and fails
TRACEMALLOC_SLOWDOWN = 6  # timeout multiplier for the tracemalloc pass, which runs jobs up to ~7x slower
SETUP_REPEATS = 25
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_job_s": "s", "peak_mib": "MiB"}


class JobTimeout(BaseException):
    """Raised in a job by SIGALRM; a BaseException so the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


@contextmanager
def alarm(seconds: float):
    """Raise JobTimeout in the block once ``seconds`` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_job(main, argv, timeout: float):
    """Run one rrsim command in-process.

    Returns (failure or None, stdout bytes, seconds).  A failure is
    `timeout`, an exception, or a non-zero exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = perf_counter()
    try:
        with alarm(timeout), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            finally:
                seconds = perf_counter() - start
    except JobTimeout:
        code, failure = None, "timeout"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        code, failure = None, f"raised {exc!r}"
    if failure is None and code != 0:
        failure = f"exit {code}: {err.getvalue().strip()[:200]}"
    return failure, out.getvalue().encode("utf-8"), seconds


@dataclass
class Pass:
    """Outcome of one pass over the jobs."""

    times: list[float] = field(default_factory=list)      # host seconds per job
    reference: list[float] = field(default_factory=list)  # the same in reference seconds
    failures: list[tuple[str, str]] = field(default_factory=list)


def run_pass(jobs, checker, main, timeout: float, calibration=None) -> Pass:
    """One pass over the jobs.  With a calibration, each job's time is also
    scaled by the loop samples taken around it."""
    result, boundaries = Pass(), []
    for job in jobs:
        gc.collect()  # each command starts from a clean heap, as in a fresh process
        if calibration is not None:
            boundaries.append(calibration.between_jobs())
        failure, stdout, seconds = run_job(main, job.argv, timeout)
        if failure is None:
            failure = checker.problem(job, stdout)
        result.times.append(seconds)
        if failure is not None:
            result.failures.append((job.name, failure))
    if calibration is not None:
        calibration.after_pass()
        result.reference = [calibration.reference(seconds, boundary)
                            for seconds, boundary in zip(result.times, boundaries)]
    return result


def generate(workload: str, seed: int, workdir: Path, tiny: bool):
    """Generate and write the input files; returns (seconds, input bytes by stem)."""
    from jobs import generate_inputs

    start = perf_counter()
    inputs = generate_inputs(workload, seed, workdir, tiny)
    return perf_counter() - start, inputs


def set_up(workload: str, seed: int, workdir: Path, tiny: bool):
    """One set-up: a fresh interpreter importing rrsim.cli, which every
    command pays, then generating and writing the input files.

    Returns (set-up seconds, input bytes by stem).
    """
    start = perf_counter()
    # A blocking wait, timed out by the alarm: subprocess's own timeout
    # polls and would round the time up by as much as 50 ms.
    with alarm(60):
        subprocess.run([sys.executable, "-c", "import rrsim.cli"], cwd=ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
    imported = perf_counter() - start
    generated, inputs = generate(workload, seed, workdir, tiny)
    return imported + generated, inputs


def measure(seconds: float, make_pass, set_up_again, setups: list, side_pass=None):
    """Timed passes for ``seconds`` of pass time, with set-ups spread evenly
    over that time until there are SETUP_REPEATS, and the untimed
    ``side_pass`` run once halfway.

    The machine's speed drifts in phases of tens of seconds, so samples
    spread over the whole run give steadier medians than samples taken
    back to back.  Returns (passes, side pass result).
    """
    passes, side = [], None
    spent = 0.0
    while not passes or spent < seconds:
        if len(setups) < SETUP_REPEATS and spent >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(set_up_again())
        if side_pass is not None and side is None and spent >= seconds / 2:
            side = side_pass()
        start = perf_counter()
        passes.append(make_pass())
        spent += perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_again())
    if side_pass is not None and side is None:
        side = side_pass()
    return passes, side


def environment() -> str:
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"machine={platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="generate 20-process files (the smoke test's size)")
    args = parser.parse_args(argv)

    if not (SRC / "rrsim" / "cli.py").is_file():
        print(f"bench: rrsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rrsim.cli
    from calibration import CALIBRATION_REFERENCE_S, Calibration
    from checks import Checker, load_golden
    from jobs import make_jobs
    from tracing import LAYER_UNITS, Tracer, instrument

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        with Calibration() as calibration:
            # The traced run reports only the generation time, so it skips the
            # interpreter start-up that only setup_s needs.
            one_set_up = partial(generate if args.trace else set_up,
                                 args.workload, args.seed, workdir, args.tiny)

            def again():
                """A set-up: (seconds, input bytes by stem, calibration boundary)."""
                boundary = calibration.between_jobs()
                return (*one_set_up(), boundary)

            setups = [again()]
            jobs = make_jobs(args.workload, args.seed, workdir)
            checker = Checker(load_golden(), inputs=setups[0][1])

            if args.trace:
                def traced_pass():
                    tracer = Tracer()
                    with instrument(tracer):
                        done = run_pass(jobs, checker, tracer.wrap("job", rrsim.cli.main),
                                        JOB_TIMEOUT_S, calibration)
                    return done, tracer

                results, _ = measure(args.seconds, traced_pass, again, setups)
                passes = [done for done, _ in results]
                generate_s = statistics.median(seconds for seconds, *_ in setups)
                layers = [tracer.layer_metrics(sum(done.times), generate_s)
                          for done, tracer in results]
                host = {name: statistics.median(m[name] for m in layers) for name in LAYER_UNITS}
                # Layer times are scaled at the run's median speed.
                scale = calibration.scale()
                metrics = {name: (host[name] * scale if unit in ("s", "us") else host[name], unit)
                           for name, unit in LAYER_UNITS.items()}
            else:
                def heap_pass():
                    tracemalloc.start()
                    try:
                        done = run_pass(jobs, checker, rrsim.cli.main,
                                        JOB_TIMEOUT_S * TRACEMALLOC_SLOWDOWN)
                        return done, tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()

                timed, (heap, peak) = measure(args.seconds, lambda: run_pass(
                    jobs, checker, rrsim.cli.main, JOB_TIMEOUT_S, calibration),
                    again, setups, heap_pass)
                passes = timed + [heap]
                calibration.after_pass()  # samples after the last set-ups
                host = {
                    "setup_s": statistics.median(seconds for seconds, *_ in setups),
                    "wall_s": statistics.median(sum(p.times) for p in timed),
                    "slowest_job_s": statistics.median(max(p.times) for p in timed),
                    "peak_mib": peak / 2 ** 20,
                }
                # Set-ups and jobs are scaled one by one.
                values = {
                    "setup_s": statistics.median(calibration.reference(seconds, boundary)
                                                 for seconds, _, boundary in setups),
                    "wall_s": statistics.median(sum(p.reference) for p in timed),
                    "slowest_job_s": statistics.median(max(p.reference) for p in timed),
                    "peak_mib": host["peak_mib"],
                }
                metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs/pass={len(jobs)} {environment()}")
    print("host pass_s " + " ".join(f"{sum(p.times):.4f}" for p in passes))
    print("reference pass_s " + " ".join(f"{sum(p.reference):.4f}" for p in passes if p.reference))
    print(f"calibration: {len(calibration.samples)} loop samples, median "
          f"{statistics.median(calibration.samples) * 1e3:.3f} ms, "
          f"reference {CALIBRATION_REFERENCE_S * 1e3:g} ms")
    for name, failure in failures[:10]:
        print(f"FAILED {name}: {failure}")
    print(f"{'metric':<36}{'reference':>16}{'host':>16}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36}{value:>16.6f}{host[name]:>16.6f} {unit}")
    print(f"{'fail_ratio':<36}{len(failures) / attempted:>16.6f} ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

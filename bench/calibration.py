"""Calibration of the host's speed, which drifts while the benchmark runs.

The host's speed drifts by a quarter and more in phases of seconds to
minutes, so raw times of the same code differ that much from run to run.
A fixed pure-Python loop drifts with it.  ``Calibration`` runs that loop
in a child process of its own between jobs, so that its time depends on
the host alone and not on the heap the program under test leaves behind,
and scales each job's host time to a reference speed: the time the job
would take on a host where the loop takes CALIBRATION_REFERENCE_S.

Run as a script, this file is the child: it times the loop once for
every line it reads and writes the seconds back, until its input closes.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

CALIBRATE_EVERY_S = 0.05          # host time per sample taken between jobs
WINDOW = 4                        # samples on each side of a job that scale it
CALIBRATION_REFERENCE_S = 0.0075  # fixed; within the loop's run medians (5.0-8.7 ms) on the 2-vCPU Xeon VM the baseline was taken on


def calibration_loop():
    """Fixed work of the kinds rrsim does: dict inserts and lookups, tuples,
    list appends, Fraction sums and a sort."""
    table, values, total = {}, [], Fraction(0)
    for i in range(15000):
        table[i] = (i, i * 3)
        values.append(table[i][1] - i)
        if i % 50 == 0:
            total += Fraction(i, 7)
    values.sort(reverse=True)
    return total


class Calibration:
    """Loop times sampled in a child process, between the jobs of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = perf_counter() - WINDOW * CALIBRATE_EVERY_S  # the first jobs get a full window
        self._child = subprocess.Popen([sys.executable, "-I", __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def sample(self, times: int = 1):
        """Time the loop ``times`` times."""
        for _ in range(times):
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            self.samples.append(float(self._child.stdout.readline()))
            self._last = perf_counter()

    def between_jobs(self) -> int:
        """Take one sample per CALIBRATE_EVERY_S since the last, at most
        WINDOW; returns the index the next sample will have."""
        due = int((perf_counter() - self._last) / CALIBRATE_EVERY_S)
        self.sample(min(due, WINDOW))
        return len(self.samples)

    def after_pass(self):
        """Take WINDOW samples, so that every job of the pass has as many after it."""
        self.sample(WINDOW)

    def reference(self, seconds: float, boundary: int) -> float:
        """``seconds`` of host time spent where the next sample had index
        ``boundary``, in reference seconds: scaled by the median of the
        WINDOW samples before that point and the WINDOW after it."""
        near = self.samples[max(0, boundary - WINDOW):boundary + WINDOW]
        return seconds * CALIBRATION_REFERENCE_S / statistics.median(near)

    def scale(self) -> float:
        """Factor from host to reference seconds at this run's median speed."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples)


if __name__ == "__main__":
    for _ in sys.stdin:
        start = perf_counter()
        calibration_loop()
        print(repr(perf_counter() - start), flush=True)

"""Start-up: ``import rrsim.cli`` loads only what a command needs.

``rrsim.reproduce`` and ``rrsim.gantt`` load on first use, so ``run`` and
``compare`` never compile them, nor build the paper's published tables,
which only ``rrsim.reproduce`` holds.  This process imported both long
ago, so each check of what loads runs in a fresh interpreter.
"""
import importlib
import json
import pkgutil
import subprocess
import sys

import rrsim
from test_golden_outputs import COMMAND_DIGESTS, RUN_OUTPUT_DIGESTS

LOADED_ON_FIRST_USE = {"rrsim.reproduce", "rrsim.gantt"}

# Runs each argv given on its command line through ``rrsim.cli.main`` and
# prints, per command, its exit status (a help or usage exit included), the
# SHA-256 of its stdout, the rrsim modules loaded after it, whether argparse
# and gettext are, and the loaded modules that hold the published registry;
# with no argv it only imports rrsim.cli.
_CHILD = """
import contextlib, hashlib, io, json, sys
import rrsim.cli

def loaded():
    registry = [name for name, m in list(sys.modules.items())
                if {"ExpectedRow", "expected_row"} & getattr(m, "__dict__", {}).keys()]
    return {"loaded": sorted(m for m in sys.modules if m.startswith("rrsim")),
            "parsing": sorted({"argparse", "gettext"} & sys.modules.keys()),
            "registry": sorted(registry)}

report = [loaded()]
for argv in map(json.loads, sys.argv[1:]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            status = rrsim.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    report.append({"status": status, **loaded(),
                   "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})
print(json.dumps(report))
"""


def _fresh(*commands):
    """Import rrsim.cli in a new interpreter, then run ``commands`` there."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, *map(json.dumps, commands)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_and_run_leave_reproduce_and_gantt_unloaded():
    imported, ran = _fresh(["run", "--algo", "dabrr", "--workload", "case:I"])
    assert "rrsim.cli" in imported["loaded"]
    assert LOADED_ON_FIRST_USE.isdisjoint(imported["loaded"])
    assert ran["status"] == 0
    assert LOADED_ON_FIRST_USE.isdisjoint(ran["loaded"])
    assert "rrsim.workloads" in ran["loaded"]
    assert imported["registry"] == ran["registry"] == []


def test_commands_that_need_them_load_them_and_print_their_golden_output():
    _, gantt, reproduce, figures = _fresh(
        ["run", "--algo", "rr", "--workload", "case:I", "--gantt"],
        ["reproduce-paper", "--format", "json"],
        ["export-figures"])
    assert (gantt["status"], gantt["sha256"]) == (0, RUN_OUTPUT_DIGESTS["I", "rr", "--gantt"])
    assert "rrsim.gantt" in gantt["loaded"] and "rrsim.reproduce" not in gantt["loaded"]
    assert (reproduce["status"], reproduce["sha256"]) == (
        0, COMMAND_DIGESTS["reproduce-paper --format json"])
    assert "rrsim.reproduce" in reproduce["loaded"]
    assert reproduce["registry"] == figures["registry"] == ["rrsim.reproduce"]
    assert (figures["status"], figures["sha256"]) == (0, COMMAND_DIGESTS["export-figures"])


def test_argparse_loads_only_for_help_and_refused_command_lines():
    imported, ran, helped = _fresh(["run", "--algo", "dabrr", "--workload", "case:I"],
                                   ["run", "-h"])
    assert imported["parsing"] == ran["parsing"] == []
    assert ran["status"] == 0
    assert (helped["status"], helped["parsing"]) == (0, ["argparse", "gettext"])


def test_only_two_records_remain_dataclasses():
    # the rest are named tuples or, like Workload, plain classes with
    # __slots__; these two are not: a tracer swaps a policy's ``plan`` with
    # dataclasses.replace, and a trace's slices are replaced the same way
    names = {f"rrsim.{info.name}" for info in pkgutil.iter_modules(rrsim.__path__)}
    modules = [importlib.import_module(name) for name in sorted(names)]
    dataclasses = {value.__name__ for module in modules for value in vars(module).values()
                   if isinstance(value, type) and value.__module__ == module.__name__
                   and hasattr(value, "__dataclass_fields__")}
    assert dataclasses == {"PolicyBehavior", "ExecutionTrace"}

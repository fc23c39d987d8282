import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsim import ProcessSpec, cli, compute_metrics, simulate
from rrsim.cli import main
from rrsim.fileio import parse_workload
from rrsim.gantt import render_gantt
from rrsim.metrics import RunMetrics
from rrsim.policies import parse_policy_spec
from rrsim.workloads import benchmark_case


def rrsim(*args):
    """Run the CLI in this process: its exit code and captured output, as
    ``subprocess.run`` reports them for ``python -m rrsim``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def rrsim_process(*args, **kwargs):
    """Run ``python -m rrsim`` in a child process, for what needs a real
    process: the module entry point and the encoding of its stdout."""
    return subprocess.run([sys.executable, "-m", "rrsim", *args],
                          capture_output=True, text=True, **kwargs)


def test_run_text_output():
    proc = rrsim("run", "--algo", "dabrr", "--workload", "case:I")
    assert proc.returncode == 0
    assert "average waiting time:    120.8" in proc.stdout
    assert "average turnaround time: 190.2" in proc.stdout
    assert "quanta:    69,27,6" in proc.stdout


def test_python_m_rrsim_prints_what_main_prints():
    proc = rrsim_process("run", "--algo", "dabrr", "--workload", "case:I")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == rrsim("run", "--algo", "dabrr", "--workload", "case:I").stdout


def test_run_json_output():
    proc = rrsim("run", "--algo", "rr:q=25", "--workload", "case:I",
                 "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["avg_waiting"] == 192.0
    assert payload["context_switches"] == 16
    assert payload["quanta"] == [25]
    assert len(payload["per_process"]) == 5


def test_run_csv_output():
    proc = rrsim("run", "--algo", "sarr", "--workload", "case:IV", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == ("pid,arrival_ms,burst_ms,completion_ms,"
                        "turnaround_ms,waiting_ms,response_ms")
    assert lines[1] == "P1,0,27,27,27,0,0"


def test_run_with_gantt():
    proc = rrsim("run", "--algo", "dqrrr", "--workload", "case:III", "--gantt")
    assert proc.returncode == 0
    assert "cycle 1  <- quantum 75 ->" in proc.stdout


@pytest.mark.parametrize("gantt", [False, True], ids=["table", "gantt"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_run_frees_its_trace_before_any_renderer(monkeypatch, fmt, gantt):
    # the output is what the parts render, the chart after the table
    workload, policy = benchmark_case("III"), parse_policy_spec("dqrrr")
    trace = simulate(workload, policy)
    expected = getattr(compute_metrics(trace, workload), f"render_{fmt}")()
    if gantt:
        expected += "\n" + render_gantt(trace)

    traces = []

    def simulate_and_watch(workload, policy):
        trace = simulate(workload, policy)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(cli, "simulate", simulate_and_watch)
    rendered = []
    for name in ("render_text", "render_json", "render_csv"):
        def render_once_freed(run, name=name, render=getattr(RunMetrics, name)):
            assert [ref() for ref in traces] == [None], f"{name} ran while the trace was held"
            rendered.append(name)
            return render(run)

        monkeypatch.setattr(RunMetrics, name, render_once_freed)
    flags = ("--gantt",) if gantt else ()
    proc = rrsim("run", "--algo", "dqrrr", "--workload", "case:III", "--format", fmt, *flags)
    assert (proc.returncode, proc.stderr, rendered) == (0, "", [f"render_{fmt}"])
    assert proc.stdout == expected


def test_run_with_workload_file(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("pid,arrival_ms,burst_ms\nA,0,10\nB,0,20\n")
    proc = rrsim("run", "--algo", "rr:q=25", "--workload", str(path))
    assert proc.returncode == 0
    assert "A" in proc.stdout


def test_compare_includes_baseline_and_gains():
    proc = rrsim("compare", "--workload", "case:I",
                 "--algos", "dabrr,sarr", "--baseline", "rr:q=25")
    assert proc.returncode == 0
    assert "rr:q=25" in proc.stdout
    assert "dabrr" in proc.stdout and "sarr" in proc.stdout


@pytest.mark.parametrize("rows", ["A,0,10\nB,50,20\n", "A,0,10\n"],
                         ids=["no overlap", "single process"])
def test_compare_on_a_baseline_that_never_waits(tmp_path, rows):
    path = tmp_path / "nowait.csv"
    path.write_text("pid,arrival_ms,burst_ms\n" + rows)
    proc = rrsim("compare", "--workload", str(path), "--algos", "dabrr,sarr")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    table = proc.stdout.splitlines()[2:]
    assert len(table) == 3  # the rr:q=25 baseline, dabrr and sarr
    assert all(line.split()[-2:] == ["0.00%", "0.00%"] for line in table)


def test_reproduce_paper_all_exits_zero():
    proc = rrsim("reproduce-paper", "--cases", "all")
    assert proc.returncode == 0
    assert "REPRODUCTION OK" in proc.stdout
    assert "[E1]" in proc.stdout and "[E2]" in proc.stdout


def test_reproduce_paper_json_flags_same_cells():
    proc = rrsim("reproduce-paper", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    flagged = [c for c in payload["cells"] if c["outcome"] == "known_erratum"]
    assert len(flagged) == 18
    assert all(c["algorithm"] == "SARR" for c in flagged)
    assert payload["summary"]["mismatch"] == 0


def test_reproduce_paper_subset():
    proc = rrsim("reproduce-paper", "--cases", "I,IV")
    assert proc.returncode == 0


@pytest.mark.parametrize("args", [
    ("run", "--algo", "nosuch", "--workload", "case:I"),
    ("run", "--algo", "rr:q=25", "--workload", "case:Z"),
    ("run", "--algo", "rr:q=25", "--workload", "/does/not/exist.csv"),
    ("reproduce-paper", "--cases", "I,IX"),
    ("generate", "--n", "0", "--burst-min", "1", "--burst-max", "5"),
    ("generate", "--n", "5", "--burst-min", "1", "--burst-max", "5",
     "--arrival", "sometimes"),
])
def test_usage_errors_exit_two(args):
    proc = rrsim(*args)
    assert proc.returncode == 2
    assert proc.stderr


@pytest.mark.parametrize("flag, value", [
    ("--n", "1_0"), ("--burst-min", "+1"), ("--burst-max", "\u0665"),
    ("--arrival", "staggered:+1_0"), ("--seed", "\u0663"),
])
def test_generate_takes_only_decimal_integers(flag, value):
    args = {"--n": "10", "--burst-min": "1", "--burst-max": "5", "--arrival": "staggered:10",
            "--seed": "3", flag: value}
    proc = rrsim("generate", *(text for item in args.items() for text in item))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("rrsim: ") and repr(value.split(":")[-1]) in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_generate_with_every_integer_malformed_exits_two():
    proc = rrsim("generate", "--n", "1_0", "--burst-min", "+1", "--burst-max", "\u0665",
                 "--arrival", "staggered:+1_0", "--seed", "\u0663")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("rrsim: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_unknown_case_is_one_unquoted_line():
    proc = rrsim("run", "--algo", "rr", "--workload", "case:ZZ")
    assert proc.returncode == 2
    assert proc.stderr == "rrsim: unknown case 'ZZ'; expected one of I, II, III, IV, V, VI, ILL\n"


@pytest.mark.parametrize("args, message", [
    (("run", "--algo", "rr"), "the following arguments are required: --workload"),
    (("run", "--algo", "rr", "--workload", "case:I", "--format", "xml"),
     "argument --format: invalid choice: 'xml'"),
], ids=["missing-workload", "bad-format"])
def test_argparse_usage_error_is_one_line(args, message):
    proc = rrsim(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"rrsim: {message}")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_help_prints_usage_and_exits_zero():
    proc = rrsim("run", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: rrsim run [-h] --algo ALGO --workload WORKLOAD")
    assert proc.stderr == ""


def test_bad_subcommand_exits_two():
    proc = rrsim("frobnicate")
    assert proc.returncode == 2


def _count_builds(monkeypatch):
    """The parsers built from here on, and the terminal-size queries made."""
    built, queries = [], []
    init, size = argparse.ArgumentParser.__init__, shutil.get_terminal_size

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_size(*args, **kwargs):
        queries.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(shutil, "get_terminal_size", counted_size)
    return built, queries


@pytest.mark.parametrize("args", [
    ("run", "--algo", "dabrr", "--workload", "case:I"),
    ("compare", "--workload", "case:I", "--algos", "dabrr"),
    ("reproduce-paper", "--cases", "I"),
    ("generate", "--n", "3", "--burst-min", "1", "--burst-max", "9"),
    ("export-figures",),
], ids=lambda args: args[0])
def test_a_well_formed_command_builds_no_parser(monkeypatch, args):
    built, queries = _count_builds(monkeypatch)
    assert rrsim(*args).returncode == 0
    assert (built, queries) == ([], [])


@pytest.mark.parametrize("args", [
    ("run", "-h"), ("run", "--algo", "rr"),
    ("compare", "-h"), ("compare", "--workload", "case:I", "--algos"),
    ("reproduce-paper", "-h"), ("reproduce-paper", "--format", "csv"),
    ("generate", "-h"), ("generate", "--n", "1_0", "--burst-min", "1", "--burst-max", "9"),
    ("export-figures", "-h"), ("export-figures", "stray"),
], ids=" ".join)
def test_a_refused_command_builds_only_its_own_parser(monkeypatch, args):
    built, queries = _count_builds(monkeypatch)
    assert rrsim(*args).returncode in (0, 2)
    assert [parser.prog for parser in built] == ["rrsim", f"rrsim {args[0]}"]
    assert len(queries) == 1  # the help width, asked once for every formatter


def test_each_call_builds_a_new_parser(monkeypatch):
    built, _ = _count_builds(monkeypatch)
    for args in (("generate", "-h"), ("generate", "-h"), ("generate", "--n", "3")):
        assert rrsim(*args).returncode in (0, 2)
    top = [parser for parser in built if parser.prog == "rrsim"]
    assert len(top) == 3  # a new one for each call


def _parsed_by(parser, argv):
    """What ``parser.parse_args(argv)`` exits with and prints, as ``rrsim`` reports it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(argv)
    return exit_.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("argv", [
    ["run", "-h"], ["run", "--algo", "rr"],
    ["run", "--algo", "rr", "--workload", "case:I", "--nosuch"],
    ["compare", "-h"], ["compare", "--workload", "case:I"],
    ["compare", "--workload", "case:I", "--algos", "rr", "--nosuch"],
    ["reproduce-paper", "-h"], ["reproduce-paper", "--cases"], ["reproduce-paper", "--nosuch"],
    ["generate", "-h"], ["generate", "--n", "5"],
    ["generate", "--n", "5", "--burst-min", "1", "--burst-max", "9", "--nosuch"],
    ["export-figures", "-h"], ["export-figures", "-o"], ["export-figures", "-x"],
], ids=" ".join)
def test_a_subcommand_parser_prints_what_the_full_parser_prints(monkeypatch, columns, argv):
    # help, a missing flag or value, and an unknown flag, at three help widths
    monkeypatch.setenv("COLUMNS", columns)
    full = _parsed_by(cli._build_parser([]), argv)
    assert full[0] in (0, 2) and full[1] + full[2]
    proc = rrsim(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == full


TOP_LEVEL_HELP = """\
usage: rrsim [-h] {run,compare,reproduce-paper,generate,export-figures} ...

Round-robin scheduling simulator with dynamic time quanta.

positional arguments:
  {run,compare,reproduce-paper,generate,export-figures}
    run                 simulate one workload under one policy
    compare             compare several policies on one workload
    reproduce-paper     check every published reference cell
    generate            generate a seeded random workload
    export-figures      export comparison figure data as CSV

options:
  -h, --help            show this help message and exit
"""
INVALID_COMMAND = ("rrsim: argument command: invalid choice: {!r} "
                   "(choose from 'run', 'compare', 'reproduce-paper', 'generate', 'export-figures')\n")


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    ((), 2, "", "rrsim: the following arguments are required: command\n"),
    (("-h",), 0, TOP_LEVEL_HELP, ""),
    (("frobnicate",), 2, "", INVALID_COMMAND.format("frobnicate")),
    (("--", "run"), 2, "", INVALID_COMMAND.format("--")),
], ids=["no-arguments", "help", "unknown-command", "double-dash"])
def test_top_level_texts_list_every_subcommand(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    proc = rrsim(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


# Each subcommand's flags and values each may take (None: a switch, which takes none)
FLAG_VALUES = {
    "run": {"--algo": ("dabrr", "rr:q=25", "mrr:floor=25", "nosuch"), "--workload": (),
            "--format": ("text", "json", "csv"), "--gantt": None},
    "compare": {"--workload": (), "--algos": ("dabrr,sarr", "rr", ","),
                "--baseline": ("rr:q=25", "sarr")},
    "reproduce-paper": {"--cases": ("all", "I,IV", "II", "IX"), "--format": ("text", "json")},
    "generate": {"--n": ("3", "50", "0"), "--burst-min": ("1", "5"),
                 "--burst-max": ("9", "120"), "--order": ("asc", "desc", "random"),
                 "--arrival": ("zero", "staggered:30", "staggered:x"), "--seed": ("0", "7"),
                 "-o": ("out.csv", "out.json"), "--output": ("out.csv", "")},
    "export-figures": {"-o": ("figures.csv",), "--output": ("figures.csv",)},
}
CASE_WORKLOADS = ("case:I", "case:VI", "case:ILL", "case:ZZ")
BAD_VALUES = ("", "xml", "1_0", "+5", "\u0663", "-5", "a\nb")
STRAY_TOKENS = ("-h", "--help", "--", "stray", "--nosuch", "-", "run", "x\ny", "\r")


def _near(flag, value):
    """Near-valid spellings of one flag and its value (None for a switch)."""
    short = [flag[:n] for n in range(3, len(flag)) if flag.startswith("--")]  # --al, --form
    if value is None:
        return [[flag, "x\ny"], [f"{flag}=x"], *([prefix] for prefix in short)]
    return [[flag], [flag, "-" + value], [f"{flag}={value}"], [flag, value, "x\ny"],
            *([prefix, value] for prefix in short), *([flag, bad] for bad in BAD_VALUES)]


@st.composite
def command_lines(draw, workloads):
    """A real subcommand and its real flags, in any order and with repeats,
    most values valid and some near-valid, now and then a stray token."""
    command = draw(st.sampled_from(sorted(FLAG_VALUES)))
    values = {flag: choices or workloads for flag, choices in FLAG_VALUES[command].items()}
    flags = draw(st.lists(st.sampled_from(sorted(values)), max_size=6))
    if draw(st.booleans()):  # every flag too, so that many draws are well formed
        flags += values
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = None if values[flag] is None else draw(st.sampled_from(values[flag]))
        if draw(st.integers(0, 5)) == 0:
            argv += draw(st.sampled_from(_near(flag, value)))
        else:
            argv += [flag] if value is None else [flag, value]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY_TOKENS)))
    return argv


def _argparse_vars(argv):
    """``vars`` of what argparse parses from ``argv``, or how it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(cli._build_parser(argv).parse_args(argv))
        except SystemExit as exit_:
            return ("exit", exit_.code, out.getvalue() + err.getvalue())


@settings(max_examples=500, deadline=None)
@given(command_lines(CASE_WORKLOADS + ("myload.csv", "dir/load.json")))
def test_the_scan_declines_or_reads_what_argparse_reads(argv):
    scanned = cli._scan(argv)
    assert scanned is None or vars(scanned) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["reproduce-paper", "--format", "json"],
    ["export-figures"],
    ["compare", "--workload", "case:ILL", "--algos", "rr,dqrrr,irrvq,sarr,rp5,mrr,dabrr"],
    *(["run", "--algo", "dabrr", "--workload", "case:I", "--format", fmt, "--gantt"]
      for fmt in ("text", "json", "csv")),
    ["run", "--algo", "irrvq", "--workload", os.path.join(os.sep, "work", "dense.csv"),
     "--format", "json"],
    # the README's examples
    ["run", "--algo", "dabrr", "--workload", "case:I", "--gantt"],
    ["run", "--algo", "rr:q=25", "--workload", "myload.csv", "--format", "json"],
    ["compare", "--workload", "case:V", "--algos", "dabrr,sarr,mrr:floor=25",
     "--baseline", "rr:q=25"],
    ["reproduce-paper", "--cases", "all", "--format", "text"],
    ["generate", "--n", "8", "--burst-min", "5", "--burst-max", "120", "--order", "random",
     "--arrival", "staggered:30", "--seed", "7", "-o", "load.csv"],
    ["export-figures", "-o", "figures.csv"],
], ids=" ".join)
def test_the_scan_reads_every_benchmarked_and_documented_command(argv):
    scanned = cli._scan(argv)
    assert scanned is not None
    assert vars(scanned) == _argparse_vars(argv)


def test_every_command_line_exits_0_1_or_2_and_an_error_is_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where -o writes

    @settings(max_examples=300, deadline=None)
    @given(command_lines(CASE_WORKLOADS))
    def check(argv):
        proc = rrsim(*argv)
        assert proc.returncode in (0, 1, 2)
        if proc.returncode == 2:
            assert proc.stderr.startswith("rrsim: ") and proc.stderr.endswith("\n")
            assert len(proc.stderr.splitlines()) == 1, proc.stderr

    check()


def test_console_script_runs_the_command_in_sys_argv(monkeypatch):
    # pyproject.toml's ``rrsim = "rrsim.cli:main"`` calls main() with no argument
    args = ("run", "--algo", "dabrr", "--workload", "case:I")
    expected = rrsim(*args).stdout
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        monkeypatch.setattr(sys, "argv", ["rrsim", *args])
        assert main() == 0
        monkeypatch.setattr(sys, "argv", ["rrsim", "frobnicate"])  # unread: argv is given
        assert main(args) == 0  # a tuple, like a list
    assert out.getvalue() == expected * 2


def _json_workload(*records):
    return json.dumps({"processes": [{"pid": pid, "arrival_ms": arrival, "burst_ms": burst}
                                     for pid, arrival, burst in records]})


def _csv_workload(*records):
    return "pid,arrival_ms,burst_ms\n" + "".join(f"{p},{a},{b}\n" for p, a, b in records)


def _csv_workload_minus_zero(*records):
    """A CSV workload that writes each time 0 as ``-0``, a form ``int()`` reads."""
    return _csv_workload(*[(pid, "-0" if arrival == 0 else arrival, burst)
                           for pid, arrival, burst in records])


@pytest.mark.parametrize("suffix, render", [(".csv", _csv_workload),
                                            (".json", _json_workload),
                                            (".csv", _csv_workload_minus_zero)])
def test_run_on_a_workload_file_builds_no_process_spec(tmp_path, monkeypatch, suffix, render):
    # a parsed workload is columns and ``run`` reads no record: a checked
    # record per row would be most of what parsing costs
    built = []
    checked = ProcessSpec.__new__

    def counted(cls, *fields):
        built.append(fields)
        return checked(cls, *fields)

    monkeypatch.setattr(ProcessSpec, "__new__", counted)
    path = tmp_path / f"w{suffix}"
    path.write_text(render(*[(f"P{i}", i % 7, 1 + i % 5) for i in range(50)]))
    proc = rrsim("run", "--algo", "dabrr", "--workload", str(path), "--format", "json")
    assert (proc.returncode, len(json.loads(proc.stdout)["per_process"])) == (0, 50)
    assert built == []
    assert len(parse_workload(path.read_bytes(), suffix[1:]).processes) == len(built) == 50


@pytest.mark.parametrize("records, message", [
    ((("P1", 0, 5), ("P1", 0, 7)), "duplicate pid 'P1'"),
    ((("P1", 0, 0),), "process 'P1' has non-positive burst 0"),
    ((("P1", -5, 5),), "process 'P1' has negative arrival -5"),
    ((("", 0, 5),), "empty pid in record ('', 0, 5)"),
    ((), "workload contains no processes"),
], ids=["duplicate-pid", "zero-burst", "negative-arrival", "empty-pid", "empty"])
@pytest.mark.parametrize("suffix, render", [(".csv", _csv_workload),
                                            (".json", _json_workload)])
def test_workload_error_is_one_exact_stderr_line(tmp_path, monkeypatch, records, message,
                                                 suffix, render):
    name = "bad" + suffix
    (tmp_path / name).write_text(render(*records))
    monkeypatch.chdir(tmp_path)
    proc = rrsim("run", "--algo", "rr", "--workload", name)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"rrsim: {name}: {message}\n"


def test_parse_error_in_workload_file_exits_two(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("pid,arrival_ms,burst_ms\nP1,0,abc\n")
    proc = rrsim("run", "--algo", "rr:q=25", "--workload", str(path))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


@pytest.mark.parametrize("data", [
    '{"processes": [{"pid": "P1", "arrival_ms": 0, "burst_ms": ' + "9" * 5000 + "}]}",
    "[" * 200_000,
], ids=["5000-digit-integer", "deep-nesting"])
def test_undecodable_json_workload_exits_two(tmp_path, data):
    path = tmp_path / "broken.json"
    path.write_text(data)
    proc = rrsim("run", "--algo", "rr:q=25", "--workload", str(path))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_generate_round_trip_is_byte_stable(tmp_path):
    out = tmp_path / "load.csv"
    proc = rrsim("generate", "--n", "8", "--burst-min", "5", "--burst-max", "90",
                 "--order", "asc", "--arrival", "staggered:20", "--seed", "11",
                 "-o", str(out))
    assert proc.returncode == 0
    first = out.read_bytes()
    # feeding the file back through run works, and re-generating is identical
    again = tmp_path / "again.csv"
    rrsim("generate", "--n", "8", "--burst-min", "5", "--burst-max", "90",
          "--order", "asc", "--arrival", "staggered:20", "--seed", "11",
          "-o", str(again))
    assert again.read_bytes() == first
    proc = rrsim("run", "--algo", "dabrr", "--workload", str(out))
    assert proc.returncode == 0


def test_generate_json_output(tmp_path):
    out = tmp_path / "load.json"
    proc = rrsim("generate", "--n", "3", "--burst-min", "1", "--burst-max", "9",
                 "--seed", "3", "-o", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert len(payload["processes"]) == 3


def test_export_figures(tmp_path):
    out = tmp_path / "figures.csv"
    proc = rrsim("export-figures", "-o", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "figure,algorithm,metric,case_group,value"
    assert "fig6,DABRR,waiting_gain_pct,grand,41.23" in lines


@pytest.mark.parametrize("args", [
    ("generate", "--n", "3", "--burst-min", "1", "--burst-max", "5"),
    ("export-figures",),
])
def test_unwritable_output_exits_two(tmp_path, args):
    target = tmp_path / "missing" / "out.csv"
    proc = rrsim(*args, "-o", str(target))
    assert proc.returncode == 2
    assert proc.stderr.startswith("rrsim: cannot write output file")
    assert len(proc.stderr.splitlines()) == 1
    assert not target.exists()


def test_pid_with_comma_exits_two(tmp_path):
    path = tmp_path / "comma.json"
    path.write_text('{"processes": [{"pid": "a,b", "arrival_ms": 0, "burst_ms": 5}]}')
    proc = rrsim("run", "--algo", "rr", "--workload", str(path), "--format", "csv")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "'a,b'" in proc.stderr


def test_non_string_json_pid_exits_two(tmp_path):
    path = tmp_path / "pids.json"
    path.write_text('{"label": "x", "processes": [{"pid": "P1", "arrival_ms": 0, "burst_ms": 5},'
                    ' {"pid": 5, "arrival_ms": 0, "burst_ms": 5}]}')
    proc = rrsim("run", "--algo", "rr", "--workload", str(path), "--format", "json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "process #2" in proc.stderr


@pytest.mark.parametrize("name", ["load.JSON", "load.Json", "load.CSV"])
def test_generate_and_run_agree_on_suffix_case(tmp_path, name):
    out = tmp_path / name
    proc = rrsim("generate", "--n", "4", "--burst-min", "1", "--burst-max", "9",
                 "--seed", "5", "-o", str(out))
    assert proc.returncode == 0
    assert out.read_text().startswith("{" if name.lower().endswith(".json") else "pid,")
    proc = rrsim("run", "--algo", "rr", "--workload", str(out), "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 5


def test_undecodable_file_name_is_a_readable_label_on_a_strict_utf8_stdout(tmp_path):
    try:  # a file name byte that is not UTF-8
        with open(os.path.join(os.fsencode(tmp_path), b"bad\xff.csv"), "w") as f:
            f.write("pid,arrival_ms,burst_ms\nA,0,10\nB,5,20\n")
    except OSError:
        pytest.skip("this file system refuses a file name that is not UTF-8")
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    workload = ("--workload", os.fsdecode(b"bad\xff.csv"))
    runs = {fmt: rrsim_process("run", "--algo", "rr", *workload, "--format", fmt,
                               cwd=tmp_path, env=env) for fmt in ("text", "json", "csv")}
    runs["compare"] = rrsim_process("compare", "--algos", "dabrr", *workload,
                                    cwd=tmp_path, env=env)
    for name, proc in runs.items():
        assert (proc.returncode, proc.stderr) == (0, ""), name
    assert "workload:  bad\\xff\n" in runs["text"].stdout
    assert json.loads(runs["json"].stdout)["workload"] == "bad\\xff"
    assert runs["csv"].stdout.startswith("pid,arrival_ms,")
    assert runs["compare"].stdout.startswith("workload: bad\\xff  (baseline rr:q=25)\n")


def test_stdout_that_cannot_encode_the_output_exits_two(tmp_path):
    (tmp_path / "café.csv").write_text("pid,arrival_ms,burst_ms\nPé,0,10\nQ,5,20\n",
                                       encoding="utf-8")
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    workload = ("--workload", "café.csv")
    runs = {fmt: rrsim_process("run", "--algo", "rr", *workload, "--format", fmt,
                               cwd=tmp_path, env=env) for fmt in ("text", "csv")}
    runs["compare"] = rrsim_process("compare", "--algos", "dabrr", *workload,
                                    cwd=tmp_path, env=env)
    for name, proc in runs.items():
        assert proc.returncode == 2, name
        assert proc.stderr.startswith("rrsim: cannot write output: 'ascii' codec"), name
        assert len(proc.stderr.splitlines()) == 1, name


def test_line_breaks_in_an_error_message_are_escaped(tmp_path, monkeypatch):
    name = "bad\nname.csv"
    try:
        (tmp_path / name).write_text("pid,arrival_ms,burst_ms\nP1,0,abc\n")
    except OSError:
        pytest.skip("this file system refuses a line break in a file name")
    monkeypatch.chdir(tmp_path)
    proc = rrsim("run", "--algo", "rr", "--workload", name)
    assert proc.returncode == 2
    assert proc.stderr == "rrsim: bad\\nname.csv: line 2: non-integer time in 'P1,0,abc'\n"
    proc = rrsim("run", "--algo", "rr", "--workload", "case:I", "x\ny\rz")
    assert proc.returncode == 2
    assert proc.stderr == "rrsim: unrecognized arguments: x\\ny\\rz\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("n, sink", [
    ("50000", "pipe"), ("3", "pipe"),
    pytest.param("3", "/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full here")),
], ids=["50000", "3", "dev-full"])
def test_closed_stdout_pipe_exits_two(n, sink, buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "pipe":  # a pipe whose reader has gone
        read_end, write_end = os.pipe()
        os.close(read_end)
    else:  # a device whose every write fails with ENOSPC
        write_end = os.open(sink, os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rrsim", "generate", "--n", n,
             "--burst-min", "1", "--burst-max", "9"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("rrsim: ")
    assert len(proc.stderr.splitlines()) == 1


# The child's address space, in MiB: about 20 on import of rrsim.cli, so a
# small command runs within it, and a command that keeps allocating fails
# within a few seconds
_MEMORY_LIMIT_MIB = 48


@pytest.mark.parametrize("args, command", [
    # two processes of 3x10^8 ms at q=1: one slice per cycle, until the trace fills memory
    (("run", "--algo", "rr:q=1", "--workload", "big.csv"), "run"),
    (("generate", "--n", "100000000", "--burst-min", "1", "--burst-max", "9"), "generate"),
], ids=["run", "generate"])
def test_running_out_of_memory_is_one_line_and_exit_two(tmp_path, args, command):
    resource = pytest.importorskip("resource", reason="no resource module to limit a child's memory")
    (tmp_path / "big.csv").write_text("pid,arrival_ms,burst_ms\nA,0,300000000\nB,0,300000000\n")
    limit = _MEMORY_LIMIT_MIB * 2**20

    def limit_memory():  # in the child alone, before it starts Python
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # the limit leaves room for a small command
    small = rrsim_process("run", "--algo", "rr", "--workload", "case:I",
                          preexec_fn=limit_memory, timeout=60)
    assert (small.returncode, small.stderr) == (0, "")
    proc = rrsim_process(*args, cwd=tmp_path, preexec_fn=limit_memory, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"rrsim: out of memory while running {command}\n"

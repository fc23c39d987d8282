"""Command-line interface.

Subcommands: run, compare, reproduce-paper, generate, export-figures.
Exit codes: 0 success, 1 reproduction mismatch, 2 usage, parse or output
error, or a command that runs out of memory.
All configuration is via flags; no environment variables.
A well-formed command line (a subcommand, then its exact flags and their
values) is read by one scan over the flag table, with no parser built.  Help
and every command line the scan refuses go to argparse, built from the same
table, so help and usage errors print as before.  Nothing is cached across
calls.
"""
from __future__ import annotations

import os
import sys
import types
from pathlib import Path

from .engine import simulate
from .fileio import CSV, JSON, ParseError, parse_workload, serialize_workload
from .metrics import compare_runs, compute_metrics
from .model import Workload, WorkloadError, decimal_int
from .policies import PolicySpecError, parse_policy_spec
from .workloads import (
    ALL_ZERO,
    ASCENDING,
    CASE_IDS,
    DESCENDING,
    RANDOM,
    STAGGERED,
    GeneratorSpec,
    benchmark_case,
    generate_workload,
)

USAGE_ERROR = 2


# ``reproduce`` and ``gantt`` load on first use, since ``run`` and
# ``compare`` need neither.  The commands call these module globals, so a
# caller can still swap any of them for a wrapper.
def render_gantt(trace):
    from .gantt import render_gantt
    return render_gantt(trace)


def reproduce_paper(case_ids):
    from .reproduce import reproduce_paper
    return reproduce_paper(case_ids)


def comparison_reports():
    from .reproduce import comparison_reports
    return comparison_reports()


def export_figure_data(reports):
    from .reproduce import export_figure_data
    return export_figure_data(reports)


class CliError(Exception):
    """Fatal usage/parse problem; message goes to stderr, exit code 2."""


def _error_line(message) -> str:
    """``rrsim: message`` as one stderr line, its line breaks escaped."""
    return f"rrsim: {message}".replace("\r", "\\r").replace("\n", "\\n") + "\n"


def _file_format(path: str) -> str:
    return JSON if Path(path).suffix.lower() == ".json" else CSV  # .JSON too


def _load_workload(spec: str) -> Workload:
    if spec.startswith("case:"):
        try:
            return benchmark_case(spec[len("case:"):])
        except KeyError as exc:
            raise CliError(exc.args[0]) from None  # str(exc) would quote the message
    path = Path(spec)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read workload file {spec!r}: {exc}") from None
    label = os.fsencode(path.stem).decode("utf-8", "backslashreplace")  # non-UTF-8 bytes: \xNN
    try:
        return parse_workload(data, _file_format(spec), label=label)
    except (ParseError, WorkloadError) as exc:
        raise CliError(f"{spec}: {exc}") from None


def _policy(spec: str):
    try:
        return parse_policy_spec(spec)
    except PolicySpecError as exc:
        raise CliError(str(exc)) from None


def _write_output(data: bytes, path: str | None) -> None:
    """Write ``data`` to the ``-o`` file, or to stdout when none is given."""
    if not path:
        sys.stdout.write(data.decode("utf-8"))
        return
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise CliError(f"cannot write output file {path!r}: {exc.strerror or exc}") from None


def _cmd_run(args) -> int:
    workload = _load_workload(args.workload)
    policy = _policy(args.algo)
    trace = simulate(workload, policy)
    run = compute_metrics(trace, workload)
    # the chart, drawn first, is the trace's last reader: free the trace
    # before the table renders, and write the chart after it
    chart = "\n" + render_gantt(trace) if args.gantt else ""
    del trace
    render = {"text": run.render_text, "json": run.render_json, "csv": run.render_csv}
    sys.stdout.write(render[args.format]())
    sys.stdout.write(chart)
    return 0


def _cmd_compare(args) -> int:
    workload = _load_workload(args.workload)
    specs = [s for s in args.algos.split(",") if s.strip()]
    if not specs:
        raise CliError("--algos must name at least one policy")
    baseline_policy = _policy(args.baseline)
    policies = [_policy(s) for s in specs]
    if all(p.descriptor != baseline_policy.descriptor for p in policies):
        policies.insert(0, baseline_policy)

    case_id = workload.label or "workload"
    runs = {}
    for policy in policies:
        if policy.descriptor in runs:
            raise CliError(f"duplicate policy {policy.descriptor.spec_string()}")
        trace = simulate(workload, policy)
        runs[policy.descriptor] = {case_id: compute_metrics(trace, workload)}
    report = compare_runs(runs, baseline_policy.descriptor, label=case_id)
    sys.stdout.write(report.render_text())
    return 0


def _cmd_reproduce(args) -> int:
    if args.cases.strip().lower() == "all":
        selected = CASE_IDS
    else:
        selected = tuple(dict.fromkeys(
            c.strip() for c in args.cases.split(",") if c.strip()))
        unknown = [c for c in selected if c not in CASE_IDS]
        if unknown or not selected:
            raise CliError(f"--cases must be 'all' or a comma list from "
                           f"{','.join(CASE_IDS)}; got {args.cases!r}")
    report = reproduce_paper(selected)
    sys.stdout.write(report.render_json() if args.format == "json" else report.render_text())
    return report.exit_status


def _cmd_generate(args) -> int:
    arrival, max_gap = ALL_ZERO, 0
    if args.arrival != "zero":
        head, _, gap_text = args.arrival.partition(":")
        if head != "staggered" or not gap_text:
            raise CliError(f"--arrival must be 'zero' or 'staggered:G', got {args.arrival!r}")
        try:
            max_gap = decimal_int(gap_text)
        except ValueError:
            raise CliError(f"staggered gap must be an integer, got {gap_text!r}") from None
        arrival = STAGGERED
    order = {"asc": ASCENDING, "desc": DESCENDING, "random": RANDOM}[args.order]
    try:
        spec = GeneratorSpec(n=args.n, burst_min=args.burst_min,
                             burst_max=args.burst_max, order=order,
                             arrival=arrival, max_gap=max_gap, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    workload = generate_workload(spec)
    fmt = _file_format(args.output) if args.output else CSV
    _write_output(serialize_workload(workload, fmt), args.output)
    return 0


def _cmd_export_figures(args) -> int:
    _write_output(export_figure_data(comparison_reports()), args.output)
    return 0


# Each subcommand's options, declared once: (flags, add_argument kwargs),
# the long flag last, since it names the value.
_COMMANDS = {
    "run": ("simulate one workload under one policy", _cmd_run, (
        (("--algo",), dict(required=True,
                           help="policy spec, e.g. rr:q=25, dabrr, mrr:floor=25")),
        (("--workload",), dict(required=True,
                               help="workload file (.csv/.json) or case:<I..VI|ILL>")),
        (("--format",), dict(choices=("text", "json", "csv"), default="text")),
        (("--gantt",), dict(action="store_true", help="append an ASCII gantt chart")))),
    "compare": ("compare several policies on one workload", _cmd_compare, (
        (("--workload",), dict(required=True)),
        (("--algos",), dict(required=True, help="comma-separated policy specs")),
        (("--baseline",), dict(default="rr:q=25")))),
    "reproduce-paper": ("check every published reference cell", _cmd_reproduce, (
        (("--cases",), dict(default="all",
                            help="'all' or a comma list such as I,IV (default: all)")),
        (("--format",), dict(choices=("text", "json"), default="text")))),
    "generate": ("generate a seeded random workload", _cmd_generate, (
        (("--n",), dict(type=decimal_int, required=True)),
        (("--burst-min",), dict(type=decimal_int, required=True)),
        (("--burst-max",), dict(type=decimal_int, required=True)),
        (("--order",), dict(choices=("asc", "desc", "random"), default="random")),
        (("--arrival",), dict(default="zero", help="'zero' or 'staggered:G'")),
        (("--seed",), dict(type=decimal_int, default=0)),
        (("-o", "--output"), dict(help="output file (.csv or .json); stdout if omitted")))),
    "export-figures": ("export comparison figure data as CSV", _cmd_export_figures, (
        (("-o", "--output"), dict(help="output file; stdout if omitted")),)),
}


def _scan(argv):
    """What ``_build_parser(argv).parse_args(argv)`` returns, read from the
    flag table alone, or None to leave ``argv`` to argparse.  It reads only a
    subcommand then its exact flags, each but a switch followed by a value
    that does not start with ``-`` and passes the flag's ``choices`` and
    ``type``, with every required flag given; a repeated flag keeps its last
    value, as in argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    by_flag = {flag: (flags[-1].lstrip("-").replace("-", "_"), kwargs)
               for flags, kwargs in options for flag in flags}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in by_flag:
            return None
        dest, kwargs = by_flag[flag]
        if kwargs.get("action") == "store_true":
            given[dest] = True
            continue
        value = next(tokens, "-")  # a last flag with no value is refused too
        if value.startswith("-") or "choices" in kwargs and value not in kwargs["choices"]:
            return None
        try:
            given[dest] = kwargs.get("type", str)(value)
        except (TypeError, ValueError):  # what argparse reports as an invalid value
            return None
    args = types.SimpleNamespace(command=argv[0], func=func)
    for dest, kwargs in dict(by_flag.values()).items():  # -o and --output: one dest
        if dest not in given and kwargs.get("required"):
            return None
        default = kwargs.get("default", False if kwargs.get("action") else None)
        setattr(args, dest, given.get(dest, default))
    return args


def _build_parser(argv):
    """A new parser with a subparser for ``argv[0]`` alone when it names a
    subcommand (argparse picks one by exact name, and only texts printed when
    none is named list them all), else one for each; the help width is asked once.
    Only help and what ``_scan`` refuses build one, so argparse loads here."""
    import argparse
    import shutil
    from functools import partial

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # one stderr line, like every other error, not the usage block
            self.exit(USAGE_ERROR, _error_line(message))

    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="rrsim", formatter_class=formatter,
        description="Round-robin scheduling simulator with dynamic time quanta.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_line, func, options = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_line, formatter_class=formatter)
        for flags, kwargs in options:
            subparser.add_argument(*flags, **kwargs)
        subparser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _scan(argv) or _build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except CliError as exc:
        sys.stderr.write(_error_line(exc))
        return USAGE_ERROR
    except (OSError, UnicodeEncodeError) as exc:
        # stdout failed: its reader has gone (`| head`), its disk is full, or
        # its encoding cannot spell the output; point it at the null device so
        # that the interpreter's exit flush writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = getattr(exc, "strerror", None) or exc
        sys.stderr.write(_error_line(f"cannot write output: {reason}"))
        return USAGE_ERROR
    except MemoryError:
        pass  # leave the handler first: its traceback holds the command's frames and what they built
    sys.stderr.write(_error_line(f"out of memory while running {args.command}"))
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 model errors or runtime failure, 2 usage or I/O
failure. Diagnostics and notes go to stderr; payloads go to stdout or --out.
Every failure ends through `_Io.fail`, which writes its note and raises
`_Exit`; `main` is the one place that turns that into the exit code.
Evaluation is one library call, `pipeline.evaluate_metrics`: `eval` is
`report` over one period, and `_evaluate` only loads, selects and notes.
`COMMANDS` is the one command table. A command line that starts with a
command's name is parsed by that command's parser alone; the full tree of
`build_parser()` is built only for top-level help and usage errors.

`main` runs the chosen command with Python's cyclic garbage collector
paused (`gc.disable()`), and switches it back on afterwards only if it was on
when `main` was called, however the command ends. The premise is that the
package makes no reference cycles that grow with its input: after a command
run with the collector off, `gc.collect()` finds the same few dozen
unreachable objects (argparse's parser) on a program of 63 and of 255
objectives and their logs, which `tests/test_cli.py` checks. Before the
pause, each command of the benchmark's model-heavy workload ran 18-33
generation-0 and 1-3 generation-1 collections that freed nothing the input
made; without them its command times fell 3.8-5.7% (`python3 bench/run.py
--workload model-heavy --seed 61 --seconds 8 --trace 0`, 10 pairs). Only
the CLI sets this policy, because it owns its process: the library
functions leave `gc` alone, and a library caller that loads a large model
may pause the collector around `parse_file` itself. A program that calls
`main` from one thread should know that its other threads get no cyclic
collection while a command runs.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, NoReturn

from .diagnostics import Diagnostic, has_errors, render_all, to_json
from .expr import format_number
from .impact import analyze as impact_analyze
from .impact import render_json as impact_render_json
from .impact import render_text as impact_render_text
from .graph import build_graph, to_dot, to_json as graph_json
from .model import Model
from .parser import BlockTable, parse_file
from .serializer import serialize

# The evaluation modules (pipeline, periods, report) and formulation are
# imported by the commands that use them, so `check`, `fmt`, `graph` and
# `impact` do not load them.
if TYPE_CHECKING:
    from . import pipeline

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_USAGE = 2


class _Exit(Exception):
    """Ends a command with a non-zero exit code; raised by `_Io.fail`."""

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


def _to_devnull(fd: int) -> None:
    """Point `fd` at the null device, so the interpreter's flush at exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class _Io:
    """Output plumbing honoring --out and --quiet."""

    def __init__(self, out_path: str | None, quiet: bool) -> None:
        self.out_path = out_path
        self.quiet = quiet

    def payload(self, data: str | bytes) -> None:
        raw = data.encode("utf-8") if isinstance(data, str) else data
        if self.out_path:
            self.write(self.out_path, raw)
            return
        try:
            if hasattr(sys.stdout, "buffer"):
                sys.stdout.buffer.write(raw)
            else:  # a text stream, as under contextlib.redirect_stdout(io.StringIO())
                sys.stdout.write(raw.decode("utf-8"))
            sys.stdout.flush()
        except OSError as exc:
            _to_devnull(1)
            self.fail(f"error: cannot write to stdout: {exc}", EXIT_USAGE)

    def write(self, path: str, raw: bytes) -> None:
        """Write `raw` to `path`. An existing regular file is replaced by a temporary
        file written beside it, so a failed write leaves the file as it was."""
        target = os.path.realpath(path)
        try:
            if not os.path.isfile(target):  # a new file, or a device or FIFO such as /dev/stdout
                with open(path, "wb") as handle:
                    handle.write(raw)
                return
            import tempfile

            fd, temp = tempfile.mkstemp(prefix=".", suffix=".tmp", dir=os.path.dirname(target))
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(raw)
                os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
                os.replace(temp, target)
            except BaseException:
                os.unlink(temp)
                raise
        except OSError as exc:
            self.fail(f"error: cannot write {path!r}: {exc}", EXIT_USAGE)

    def note(self, message: str) -> None:
        try:
            if not self.quiet:
                print(message, file=sys.stderr)
        except OSError:
            _to_devnull(2)  # a note that cannot be written is dropped, as with --quiet

    def fail(self, message: str, code: int = EXIT_ERRORS) -> NoReturn:
        self.note(message)
        raise _Exit(code)


def _load_model(path: str, io: _Io, table: BlockTable | None = None) -> tuple[Model, list[Diagnostic]]:
    """Parse + validate one model file; an unreadable file fails with exit 2.

    The model comes back even with errors, for `check` to report.
    """
    from .validator import validate

    try:
        model, diags = parse_file(path, table)
    except (OSError, UnicodeDecodeError) as exc:
        io.fail(f"error: cannot read {path!r}: {exc}", EXIT_USAGE)
    return model, diags + validate(model)


def _require_clean(
    path: str, io: _Io, refusal: str = "has validation errors; aborting", table: BlockTable | None = None
) -> Model:
    """The model at `path`, after noting its diagnostics; errors fail with exit 1."""
    model, diags = _load_model(path, io, table)
    if diags:
        io.note(render_all(diags).rstrip("\n"))
    if has_errors(diags):
        io.fail(f"error: {path} {refusal}")
    return model


def _cmd_check(args: argparse.Namespace, io: _Io) -> None:
    """The diagnostic listing is check's payload; the summary is a note."""
    diags = [d for path in args.models for d in _load_model(path, io)[1]]
    io.payload(to_json(diags) if args.format == "json" else render_all(diags))
    errors = sum(1 for d in diags if d.is_error)
    warnings = len(diags) - errors
    summary = f"checked {len(args.models)} file(s): {errors} error(s), {warnings} warning(s)"
    if errors or (args.strict and warnings):
        io.fail(summary)
    io.note(summary)


def _cmd_render(args: argparse.Namespace, io: _Io) -> None:
    from . import formulation

    model = _require_clean(args.model, io)
    try:
        if args.id is not None:
            text = formulation.render_formulation(model, args.id) + "\n"
        else:
            text = "\n".join(
                f"## {node_id}\n{formulation.render_formulation(model, node_id)}\n"
                for node_id in formulation.renderable_ids(model)
            )
    except KeyError:
        io.fail(f"error: {args.id!r} is not a renderable objective or goal")
    except formulation.MissingFieldError as exc:
        io.fail(f"error: {exc}")
    io.payload(text)


def _cmd_graph(args: argparse.Namespace, io: _Io) -> None:
    graph = build_graph(_require_clean(args.model, io))
    io.payload(to_dot(graph) if args.format == "dot" else graph_json(graph))


def _ingest(paths: list[str], model: Model, io: _Io) -> pipeline.MeasurementLog:
    from . import pipeline

    try:
        log = pipeline.ingest_many(paths, model)
    except (OSError, UnicodeDecodeError) as exc:
        io.fail(f"error: cannot read measurements: {exc}", EXIT_USAGE)
    if log.diagnostics:
        io.note(render_all(list(log.diagnostics)).rstrip("\n"))
    return log


def _eval_text(result: pipeline.EvaluationResult, model: Model) -> list[str]:
    from . import pipeline

    outcome = f"value {result.value} band '{result.band.label}'" if result.ok else f"FAILED ({result.failure})"
    lines = [f"{result.metric_id} {result.period}: {outcome}"]
    bound = ", ".join(f"{name}={format_number(value)}" for name, value in result.bindings)
    lines.append(f"  bindings: {bound or 'none'}")
    lines.append(f"  affected objectives: {', '.join(result.affected_objectives) or 'none'}")
    for warning in result.density_warnings:
        lines.append(f"  warning: {warning}")
    for directive in pipeline.route_result(result, model):
        targets = ", ".join(directive.stakeholders) or "-"
        lines.append(f"  {directive.kind.value} -> {targets}")
    return lines


def _select_metrics(model: Model, metric: str, io: _Io) -> list[str]:
    """Metric ids for `--metric`: every metric for 'all', else the one named."""
    if metric == "all":
        return sorted(model.metrics)
    if metric not in model.metrics:
        io.fail(f"error: unknown metric {metric!r}")
    return [metric]


def _evaluate(args: argparse.Namespace, io: _Io, first: str, last: str) -> tuple[Model, list[pipeline.EvaluationResult]]:
    """Each selected metric over `first`..`last`: a bad key or range fails with exit 2, and a
    metric that `pipeline.evaluate_metrics` skips for these periods (its schedule) gets a note."""
    from . import periods, pipeline

    model = _require_clean(args.model, io)
    log = _ingest(args.measurements, model, io)
    try:
        keys = periods.period_range(first, last)
    except periods.PeriodError as exc:
        io.fail(f"error: {exc}", EXIT_USAGE)
    metric_ids = _select_metrics(model, args.metric, io)
    results, skipped = pipeline.evaluate_metrics(model, build_graph(model), log, metric_ids, keys)
    for metric_id, exc in skipped:
        io.note(f"note: skipping {metric_id}: {exc}")
    if not results:
        io.fail("error: no results")
    return model, results


def _cmd_eval(args: argparse.Namespace, io: _Io) -> None:
    from . import report as report_mod
    from .payload import dumps

    model, results = _evaluate(args, io, args.period, args.period)
    if args.format == "json":
        io.payload(dumps({"results": [report_mod.result_json_obj(result, model) for result in results]}))
    else:
        io.payload("".join(f"{line}\n" for result in results for line in _eval_text(result, model)))


def _cmd_report(args: argparse.Namespace, io: _Io) -> None:
    from . import report as report_mod

    model, results = _evaluate(args, io, getattr(args, "from"), args.to)
    io.payload(report_mod.generate_report(results, model, args.format))


def _cmd_impact(args: argparse.Namespace, io: _Io) -> None:
    """The new version reuses the blocks of the old one that it holds unchanged."""
    table: BlockTable = {}
    old = _require_clean(args.old, io, table=table)
    reports = impact_analyze(old, _require_clean(args.new, io, table=table))
    io.payload(impact_render_json(reports) if args.json else impact_render_text(reports))


def _cmd_fmt(args: argparse.Namespace, io: _Io) -> None:
    """Canonical text of the whole model: to --out, or back into a one-file model."""
    model = _require_clean(args.model, io, "has errors; refusing to rewrite it")
    if model.included:
        # The flat text written over any of the model's own files would lose its includes.
        if not io.out_path:
            io.fail(
                f"error: {args.model} includes {', '.join(model.included)}; "
                "refusing to rewrite it in place with their declarations (use --out)"
            )
        if os.path.realpath(io.out_path) in (os.path.realpath(args.model), *model.included):
            io.fail(f"error: {io.out_path} is a file of {args.model}, which has includes; refusing to overwrite it")
    if io.out_path:
        io.payload(serialize(model))
        return
    io.write(args.model, serialize(model).encode("utf-8"))
    io.note(f"formatted {args.model}")


class Command(NamedTuple):
    """One command: its help line, its function and its arguments after `--out` and `--quiet`."""

    help: str
    func: Callable[[argparse.Namespace, _Io], None]
    args: tuple[tuple[tuple[str, ...], dict[str, Any]], ...]


def _arg(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, kwargs


_SHARED = (
    _arg("--out", help="write the payload to this file instead of stdout"),
    _arg("--quiet", action="store_true", help="suppress notes and diagnostics"),
)

COMMANDS = {
    "check": Command("parse and validate model files", _cmd_check, (
        _arg("models", nargs="+", metavar="model"),
        _arg("--strict", action="store_true", help="treat warnings as errors"),
        _arg("--format", choices=("text", "json"), default="text"),
    )),
    "render": Command("print natural-language formulations", _cmd_render, (
        _arg("model"),
        _arg("--id", help="render a single objective or goal"),
    )),
    "graph": Command("emit the traceability graph", _cmd_graph, (
        _arg("model"),
        _arg("--format", choices=("dot", "json"), default="dot"),
    )),
    "eval": Command("evaluate metrics for one period", _cmd_eval, (
        _arg("model"),
        _arg("--measurements", nargs="+", required=True, metavar="log"),
        _arg("--metric", required=True, help="metric id or 'all'"),
        _arg("--period", required=True, help="period key, e.g. 2014-09 or 2014-Q3"),
        _arg("--format", choices=("text", "json"), default="text"),
    )),
    "report": Command("evaluate a period range and report", _cmd_report, (
        _arg("model"),
        _arg("--measurements", nargs="+", required=True, metavar="log"),
        _arg("--metric", default="all", help="metric id or 'all' (default)"),
        _arg("--from", required=True, dest="from", metavar="period"),
        _arg("--to", required=True, metavar="period"),
        _arg("--format", choices=("text", "json", "svg"), default="text"),
    )),
    "impact": Command("diff two model versions with impact sets", _cmd_impact, (
        _arg("old"), _arg("new"),
        _arg("--json", action="store_true", help="emit JSON instead of text"),
    )),
    "fmt": Command("rewrite a model in canonical form", _cmd_fmt, (_arg("model"),)),
}


def _fill(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """`parser` with the arguments of command `name`, dispatching to its function."""
    for flags, kwargs in _SHARED + COMMANDS[name].args:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(command=name, func=COMMANDS[name].func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full tree: every command as a sub-parser, for top-level help and errors."""
    parser = argparse.ArgumentParser(
        prog="symbiosis",
        description="Model, validate, evaluate and report on security measurement programs.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in COMMANDS.items():
        _fill(sub.add_parser(name, help=command.help), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extra = None, argv
        if argv and argv[0] in COMMANDS:
            args, extra = _fill(argparse.ArgumentParser(prog=f"symbiosis {argv[0]}"), argv[0]).parse_known_args(argv[1:])
        if args is None or extra:
            parser = build_parser()
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and EXIT_USAGE
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    enabled = gc.isenabled()
    gc.disable()
    try:
        args.func(args, _Io(args.out, args.quiet))
    except _Exit as exc:
        return exc.code
    finally:
        if enabled:
            gc.enable()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

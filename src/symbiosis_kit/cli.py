"""Command-line interface.

Exit codes: 0 success, 1 model errors or runtime failure, 2 usage or I/O
failure. Diagnostics and notes go to stderr; payloads go to stdout or --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .diagnostics import Diagnostic, has_errors, render_all, to_json
from .impact import analyze as impact_analyze
from .impact import render_json as impact_render_json
from .impact import render_text as impact_render_text
from .graph import build_graph, to_dot, to_json as graph_json
from .model import Model
from .parser import parse_file
from .serializer import serialize

# The evaluation modules (pipeline, periods, report) and formulation are
# imported by the commands that use them, so `check`, `fmt`, `graph` and
# `impact` do not load them.
if TYPE_CHECKING:
    from . import pipeline

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_USAGE = 2


class _Io:
    """Output plumbing honoring --out and --quiet."""

    def __init__(self, out_path: str | None, quiet: bool) -> None:
        self.out_path = out_path
        self.quiet = quiet

    def payload(self, data: str | bytes) -> int:
        raw = data.encode("utf-8") if isinstance(data, str) else data
        if self.out_path:
            try:
                with open(self.out_path, "wb") as handle:
                    handle.write(raw)
            except OSError as exc:
                self.note(f"error: cannot write {self.out_path!r}: {exc}")
                return EXIT_USAGE
        else:
            sys.stdout.buffer.write(raw)
            sys.stdout.buffer.flush()
        return EXIT_OK

    def note(self, message: str) -> None:
        if not self.quiet:
            print(message, file=sys.stderr)


def _load_model(path: str, io: _Io) -> tuple[Model | None, list[Diagnostic], int]:
    """Parse + validate one model file. Returns (model, diagnostics, exit code).

    The model comes back even with errors (for `check` to report); the exit
    code says whether downstream commands may use it.
    """
    from .validator import validate

    try:
        model, diags = parse_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        io.note(f"error: cannot read {path!r}: {exc}")
        return None, [], EXIT_USAGE
    diags = diags + validate(model)
    return model, diags, EXIT_ERRORS if has_errors(diags) else EXIT_OK


def _require_clean(path: str, io: _Io) -> Model | None:
    model, diags, code = _load_model(path, io)
    if model is None:
        return None
    if diags:
        io.note(render_all(diags).rstrip("\n"))
    if code != EXIT_OK:
        io.note(f"error: {path} has validation errors; aborting")
        return None
    return model


def _cmd_check(args: argparse.Namespace, io: _Io) -> int:
    """The diagnostic listing is check's payload; the summary is a note."""
    all_diags: list[Diagnostic] = []
    worst = EXIT_OK
    for path in args.models:
        model, diags, code = _load_model(path, io)
        if model is None:
            return EXIT_USAGE
        all_diags.extend(diags)
        if code != EXIT_OK:
            worst = EXIT_ERRORS
    payload = to_json(all_diags) if args.format == "json" else render_all(all_diags)
    code = io.payload(payload)
    if code != EXIT_OK:
        return code
    errors = sum(1 for d in all_diags if d.is_error)
    warnings = len(all_diags) - errors
    io.note(f"checked {len(args.models)} file(s): {errors} error(s), {warnings} warning(s)")
    if args.strict and warnings:
        worst = EXIT_ERRORS
    return worst


def _cmd_render(args: argparse.Namespace, io: _Io) -> int:
    from . import formulation

    model = _require_clean(args.model, io)
    if model is None:
        return EXIT_ERRORS
    try:
        if args.id:
            return io.payload(formulation.render_formulation(model, args.id) + "\n")
        chunks = []
        for node_id in formulation.renderable_ids(model):
            chunks.append(f"## {node_id}")
            chunks.append(formulation.render_formulation(model, node_id))
            chunks.append("")
        return io.payload("\n".join(chunks))
    except KeyError:
        io.note(f"error: {args.id!r} is not a renderable objective or goal")
        return EXIT_ERRORS
    except formulation.MissingFieldError as exc:
        io.note(f"error: {exc}")
        return EXIT_ERRORS


def _cmd_graph(args: argparse.Namespace, io: _Io) -> int:
    model = _require_clean(args.model, io)
    if model is None:
        return EXIT_ERRORS
    graph = build_graph(model)
    if args.format == "dot":
        return io.payload(to_dot(graph))
    return io.payload(graph_json(graph))


def _ingest(paths: list[str], model: Model, io: _Io) -> tuple[pipeline.MeasurementLog | None, int]:
    from . import pipeline

    try:
        log = pipeline.ingest_many(paths, model)
    except (OSError, UnicodeDecodeError) as exc:
        io.note(f"error: cannot read measurements: {exc}")
        return None, EXIT_USAGE
    if log.diagnostics:
        io.note(render_all(list(log.diagnostics)).rstrip("\n"))
    return log, EXIT_OK


def _eval_text(result: pipeline.EvaluationResult, model: Model) -> list[str]:
    from . import pipeline

    lines = []
    if result.ok:
        band = result.band.label if result.band else "?"
        lines.append(f"{result.metric_id} {result.period}: value {result.value} band '{band}'")
    else:
        lines.append(f"{result.metric_id} {result.period}: FAILED ({result.failure})")
    bound = ", ".join(f"{name}={_fmt_binding(value)}" for name, value in result.bindings)
    lines.append(f"  bindings: {bound or 'none'}")
    lines.append(f"  affected objectives: {', '.join(result.affected_objectives) or 'none'}")
    for warning in result.density_warnings:
        lines.append(f"  warning: {warning}")
    for directive in pipeline.route_result(result, model):
        targets = ", ".join(directive.stakeholders) or "-"
        lines.append(f"  {directive.kind.value} -> {targets}")
    return lines


def _fmt_binding(value: float) -> str:
    return str(int(value)) if value == int(value) else str(value)


def _select_metrics(model: Model, metric: str, io: _Io) -> list[str] | None:
    """Metric ids for `--metric`: every metric for 'all', else the one named."""
    if metric == "all":
        return sorted(model.metrics)
    if metric not in model.metrics:
        io.note(f"error: unknown metric {metric!r}")
        return None
    return [metric]


def _cmd_eval(args: argparse.Namespace, io: _Io) -> int:
    from . import periods, pipeline, report as report_mod

    model = _require_clean(args.model, io)
    if model is None:
        return EXIT_ERRORS
    log, code = _ingest(args.measurements, model, io)
    if log is None:
        return code
    metric_ids = _select_metrics(model, args.metric, io)
    if metric_ids is None:
        return EXIT_ERRORS
    graph = build_graph(model)
    results = []
    for metric_id in metric_ids:
        try:
            results.append(
                pipeline.evaluate_period(model, graph, log, metric_id, args.period)
            )
        except periods.PeriodError as exc:
            io.note(f"note: skipping {metric_id}: {exc}")
    if not results:
        io.note("error: no results")
        return EXIT_ERRORS
    if args.format == "json":
        payload = {"results": [report_mod.result_json_obj(result, model) for result in results]}
        return io.payload(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines: list[str] = []
    for result in results:
        lines.extend(_eval_text(result, model))
    return io.payload("\n".join(lines) + "\n")


def _cmd_report(args: argparse.Namespace, io: _Io) -> int:
    from . import periods, pipeline, report as report_mod

    model = _require_clean(args.model, io)
    if model is None:
        return EXIT_ERRORS
    log, code = _ingest(args.measurements, model, io)
    if log is None:
        return code
    try:
        keys = periods.period_range(getattr(args, "from"), args.to)
    except periods.PeriodError as exc:
        io.note(f"error: {exc}")
        return EXIT_USAGE
    granularity = periods.granularity_of(keys[0])
    metric_ids = _select_metrics(model, args.metric, io)
    if metric_ids is None:
        return EXIT_ERRORS
    graph = build_graph(model)
    results = []
    for metric_id in metric_ids:
        metric = model.metrics[metric_id]
        if metric.schedule is not None and granularity not in (
            metric.schedule.collection,
            metric.schedule.reporting,
        ):
            io.note(
                f"note: skipping {metric_id}: runs on {metric.schedule.notation()}, "
                f"not {granularity.value}"
            )
            continue
        for key in keys:
            results.append(pipeline.evaluate_period(model, graph, log, metric_id, key))
    if not results:
        io.note("error: no results")
        return EXIT_ERRORS
    try:
        payload = report_mod.generate_report(results, model, args.format)
    except report_mod.UnknownFormat as exc:
        io.note(f"error: {exc}")
        return EXIT_USAGE
    return io.payload(payload)


def _cmd_impact(args: argparse.Namespace, io: _Io) -> int:
    old_model = _require_clean(args.old, io)
    if old_model is None:
        return EXIT_ERRORS
    new_model = _require_clean(args.new, io)
    if new_model is None:
        return EXIT_ERRORS
    reports = impact_analyze(old_model, new_model)
    if args.json:
        return io.payload(impact_render_json(reports))
    return io.payload(impact_render_text(reports))


def _cmd_fmt(args: argparse.Namespace, io: _Io) -> int:
    model, diags, code = _load_model(args.model, io)
    if model is None:
        return EXIT_USAGE
    if diags:
        io.note(render_all(diags).rstrip("\n"))
    if code != EXIT_OK:
        io.note(f"error: {args.model} has errors; refusing to rewrite it")
        return EXIT_ERRORS
    text = serialize(model)
    if io.out_path:
        return io.payload(text)
    try:
        with open(args.model, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        io.note(f"error: cannot write {args.model!r}: {exc}")
        return EXIT_USAGE
    io.note(f"formatted {args.model}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbiosis",
        description="Model, validate, evaluate and report on security measurement programs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the payload to this file instead of stdout")
    common.add_argument("--quiet", action="store_true", help="suppress notes and diagnostics")

    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("check", parents=[common], help="parse and validate model files")
    p.add_argument("models", nargs="+", metavar="model")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("render", parents=[common], help="print natural-language formulations")
    p.add_argument("model")
    p.add_argument("--id", help="render a single objective or goal")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("graph", parents=[common], help="emit the traceability graph")
    p.add_argument("model")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("eval", parents=[common], help="evaluate metrics for one period")
    p.add_argument("model")
    p.add_argument("--measurements", nargs="+", required=True, metavar="log")
    p.add_argument("--metric", required=True, help="metric id or 'all'")
    p.add_argument("--period", required=True, help="period key, e.g. 2014-09 or 2014-Q3")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", parents=[common], help="evaluate a period range and report")
    p.add_argument("model")
    p.add_argument("--measurements", nargs="+", required=True, metavar="log")
    p.add_argument("--metric", default="all", help="metric id or 'all' (default)")
    p.add_argument("--from", required=True, dest="from", metavar="period")
    p.add_argument("--to", required=True, metavar="period")
    p.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("impact", parents=[common], help="diff two model versions with impact sets")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=_cmd_impact)

    p = sub.add_parser("fmt", parents=[common], help="rewrite a model in canonical form")
    p.add_argument("model")
    p.set_defaults(func=_cmd_fmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and EXIT_USAGE
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    io = _Io(getattr(args, "out", None), getattr(args, "quiet", False))
    return args.func(args, io)


if __name__ == "__main__":
    sys.exit(main())

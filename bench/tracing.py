"""Per-layer tracing from outside the program.

The tracer replaces functions at the module attributes the CLI actually
calls through, records a span per call (name, start, end, parent span and
the id of the command it belongs to) and counts at the same boundaries. It
changes no file of the program and puts every attribute back on restore().

Modules are resolved with importlib.import_module: `symbiosis_kit.impact`
as an attribute of the package is the re-exported `impact` function, not the
module.

A layer's self time is the time of its spans minus the time of the spans
nested in them. Hot leaf functions (TraceabilityGraph.edges_from) are timed
and counted but keep no span records, and periods.period_contains is only
counted, so tracing stays affordable on them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Callable

PACKAGE = "symbiosis_kit"

# (module, attribute path, layer metric stem, span kind). A layer named by
# several entries sums their self times. Kinds: "span" keeps a record per
# call; "timed" times and counts without records; "count" only counts.
WRAPS = (
    ("cli", "main", "cli.command", "span"),
    ("cli", "parse_file", "parser.parse", "span"),
    ("parser", "tokenize", "lexer.tokenize", "span"),
    ("validator", "validate", "validator.validate", "span"),
    ("cli", "build_graph", "graph.build", "span"),
    ("impact", "build_graph", "graph.build", "span"),
    ("pipeline", "objective_ancestors_ordered", "graph.ancestors_ordered", "span"),
    ("impact", "ancestors", "graph.closure", "span"),
    ("impact", "descendants", "graph.closure", "span"),
    ("graph", "TraceabilityGraph.edges_from", "graph.edges_from", "timed"),
    ("pipeline", "ingest_many", "pipeline.ingest", "span"),
    ("pipeline", "ingest_lines", "pipeline.ingest", "span"),
    ("pipeline", "evaluate_period", "pipeline.evaluate_period", "span"),
    ("pipeline", "aggregate", "pipeline.aggregate", "span"),
    ("evaluator", "evaluate_metric", "evaluator.evaluate_metric", "span"),
    ("pipeline", "route_result", "pipeline.route", "span"),
    ("report", "route_result", "pipeline.route", "span"),
    ("report", "generate_report", "report.generate", "span"),
    ("cli", "impact_analyze", "impact.analyze", "span"),
    ("impact", "diff", "impact.diff", "span"),
    ("impact", "impact", "impact.impact", "span"),
    ("cli", "serialize", "serializer.serialize", "span"),
    ("periods", "period_contains", "periods.period_contains", "count"),
)


def _count_tokenize(counts: Counter, args: tuple, result) -> None:
    counts["lexer.tokens"] += len(result[0])
    counts["parser.source_bytes"] += len(args[0].encode("utf-8"))


def _count_parse(counts: Counter, args: tuple, result) -> None:
    model = result[0]
    counts["parser.blocks"] += sum(
        len(model.collection(kind)) for kind in ("stakeholder", "universe", "objective", "strategy",
                                                 "goal", "question", "base", "metric")
    )


def _count_ingest_lines(counts: Counter, args: tuple, result) -> None:
    counts["pipeline.lines_read"] += len(args[0])
    counts["pipeline.records_accepted"] += len(result.records)
    counts["pipeline.lines_rejected"] += len(result.diagnostics)


def _count_aggregate(counts: Counter, args: tuple, result) -> None:
    counts["pipeline.bindings_bound"] += len(result)
    counts["pipeline.bases_used"] += len(args[1].uses)


# Counts taken from a wrapped call's arguments and result, by wrapped name.
COUNTERS: dict[str, Callable[[Counter, tuple, object], None]] = {
    "parser.tokenize": _count_tokenize,
    "cli.parse_file": _count_parse,
    "validator.validate": lambda c, a, r: c.update({"validator.diagnostics": len(r)}),
    "cli.build_graph": lambda c, a, r: c.update({"graph.edges": len(r.edges)}),
    "impact.build_graph": lambda c, a, r: c.update({"graph.edges": len(r.edges)}),
    "pipeline.ingest_lines": _count_ingest_lines,
    "pipeline.aggregate": _count_aggregate,
    "pipeline.evaluate_period": lambda c, a, r: c.update({"evaluator.results_failed": r.failure is not None}),
    "pipeline.route_result": lambda c, a, r: c.update({"pipeline.directives": len(r)}),
    "report.route_result": lambda c, a, r: c.update({"pipeline.directives": len(r)}),
    "report.generate_report": lambda c, a, r: c.update({"report.payload_bytes": len(r)}),
    "impact.diff": lambda c, a, r: c.update({"impact.changes": len(r)}),
    "impact.impact": lambda c, a, r: c.update({"impact.orphans": len(r.downstream_orphans)}),
    "cli.serialize": lambda c, a, r: c.update({"serializer.bytes": len(r.encode("utf-8"))}),
}


def _resolve(module: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(f"{PACKAGE}.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Install with install(), remove with restore(), read with take().

    Spans accumulate over the whole run; take() returns the layer metrics
    gathered since the last take() and starts them afresh.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, command id)
        self.self_time: Counter = Counter()  # layer stem -> seconds
        self.calls: Counter = Counter()  # layer stem -> calls
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._command = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, path, layer, kind in WRAPS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            counter = COUNTERS.get(f"{module}.{path}")
            if kind == "count":
                wrapper = self._counting(original, layer)
            else:
                wrapper = self._timing(original, path, layer, kind == "span", counter)
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counting(self, fn: Callable, layer: str) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def _timing(self, fn: Callable, name: str, layer: str, record: bool, counter) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack and name == "main":
                tracer._command += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_time[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if record:
                    tracer.spans.append((span_id, f"{layer}:{name}", start, end, parent, tracer._command))
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def take(self) -> dict[str, float]:
        """Per-layer self times (s) and counts since the last take()."""
        t, n, c = self.self_time, self.calls, self.counts
        self.self_time, self.calls, self.counts = Counter(), Counter(), Counter()
        ingest_s = t["pipeline.ingest"]
        return {
            "lexer.tokenize_s": t["lexer.tokenize"],
            "lexer.tokens": c["lexer.tokens"],
            "parser.parse_s": t["parser.parse"],
            "parser.blocks": c["parser.blocks"],
            "parser.source_bytes": c["parser.source_bytes"],
            "validator.validate_s": t["validator.validate"],
            "validator.diagnostics": c["validator.diagnostics"],
            "graph.build_s": t["graph.build"],
            "graph.edges": c["graph.edges"],
            "graph.ancestors_ordered_s": t["graph.ancestors_ordered"],
            "graph.ancestors_ordered_calls": n["graph.ancestors_ordered"],
            "graph.edges_from_s": t["graph.edges_from"],
            "graph.edges_from_calls": n["graph.edges_from"],
            "graph.closure_s": t["graph.closure"],
            "pipeline.ingest_s": ingest_s,
            "pipeline.lines_read": c["pipeline.lines_read"],
            "pipeline.records_accepted": c["pipeline.records_accepted"],
            "pipeline.lines_rejected": c["pipeline.lines_rejected"],
            "pipeline.ingest_lines_per_s": c["pipeline.lines_read"] / ingest_s if ingest_s else 0.0,
            "pipeline.aggregate_s": t["pipeline.aggregate"],
            "pipeline.aggregate_calls": n["pipeline.aggregate"],
            "pipeline.bindings_bound": c["pipeline.bindings_bound"],
            "pipeline.bindings_per_base_use": (
                c["pipeline.bindings_bound"] / c["pipeline.bases_used"] if c["pipeline.bases_used"] else 0.0
            ),
            "pipeline.evaluate_period_s": t["pipeline.evaluate_period"],
            "pipeline.evaluate_period_calls": n["pipeline.evaluate_period"],
            "periods.period_contains_calls": n["periods.period_contains"],
            "evaluator.evaluate_metric_s": t["evaluator.evaluate_metric"],
            "evaluator.results_failed": c["evaluator.results_failed"],
            "pipeline.route_s": t["pipeline.route"],
            "pipeline.directives": c["pipeline.directives"],
            "report.generate_s": t["report.generate"],
            "report.payload_bytes": c["report.payload_bytes"],
            "impact.diff_s": t["impact.diff"],
            "impact.changes": c["impact.changes"],
            "impact.impact_s": t["impact.impact"] + t["impact.analyze"],
            "impact.impact_calls": n["impact.impact"],
            "impact.orphans": c["impact.orphans"],
            "serializer.serialize_s": t["serializer.serialize"],
            "serializer.bytes": c["serializer.bytes"],
            "cli.command_s": t["cli.command"],
        }

    def write_spans(self, path: str, origin: float) -> None:
        """Write the recorded spans as JSON lines, times relative to `origin`."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, command in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                            "parent": parent,
                            "command": command,
                        }
                    )
                    + "\n"
                )


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


UNITS = {name: _unit(name) for name in Tracer().take()}
UNITS["pipeline.bindings_per_base_use"] = "ratio"
UNITS["trace.overhead_pct"] = "%"

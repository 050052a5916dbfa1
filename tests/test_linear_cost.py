"""Model and pipeline stages cost time linear in their input: a gate that counts, not times.

Every stage below is counted twice, in two runs, and each count's ratio is
asserted against the same bound. The first count is of Python-level calls
(`sys.setprofile` `call` and `c_call` events). The second is of line events
(`sys.settrace`, which fires once per line run and so once per step of a
bare loop); its run gets copies of the stage's model and log without what
their cached properties keep, so it also counts building the model's
`kinds` and the log's date indexes again.

The model stages are `parse_file`, `validate`, `build_graph` (the graph,
then a read of each table it builds on first read), `serialize` and
`impact.analyze`, on generated programs of N and 2N objectives.
`analyze` is counted three times: against the program with one metric's
description edited, with one leaf objective removed, and with the last
quarter of its objectives (all leaves) removed, so that the removals grow
with the program. A rule that rescans the model for each node multiplies
its counts by about four when N doubles; a linear one by about two.

The pipeline stages are counted on the benchmark's generated programs and
logs (`bench/gen.py`, compiled in memory): `ingest_many` and
`evaluate_metrics` when the log lines double, `evaluate_metrics` and
`generate_report` when the objectives do, and `evaluate_metrics` and
`generate_report` when the period keys do (the log's 12 months of 2014,
then those and the 12 months of 2015, which the log does not reach).

Ratios are asserted, not counts, because the events of one program differ
between Python versions. The profiler does not see the steps of a loop that
calls nothing per step, so a rescan written as a bare `for` or a
comprehension passes the call count and fails the line count. Work inside C
code (the regex engine, `str` methods, `sorted`, `json`) is unseen by
either count. The line cursor of `lexer.Source` works inside `str.count`
and `str.rfind`, so `test_spans_read_each_character_a_bounded_number_of_times`
counts the characters those read instead.
"""

from __future__ import annotations

import random
import sys

import pytest

from modelgen import program_model
from same_bytes import bench_workloads
from symbiosis_kit.graph import build_graph
from symbiosis_kit.impact import analyze
from symbiosis_kit.model import Model
from symbiosis_kit.parser import parse, parse_file
from symbiosis_kit.pipeline import MeasurementLog, evaluate_metrics, ingest_many
from symbiosis_kit.report import generate_report
from symbiosis_kit.serializer import serialize
from symbiosis_kit.validator import validate

OBJECTIVES = 255
MAX_RATIO = 2.2  # calls at 2N over calls at N


def count_calls(fn, *args) -> tuple[int, object]:
    """The Python-level calls `fn(*args)` makes, with its result."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return calls, result


def count_lines(fn, *args) -> tuple[int, object]:
    """The Python lines `fn(*args)` runs (`sys.settrace` `line` events), with its result."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return lines, result


def fresh(arg):
    """A model or log copied without what its cached properties keep (a model's `kinds`,
    a log's date indexes), so that a run builds them again; any other `arg` itself."""
    return arg._replace() if isinstance(arg, (Model, MeasurementLog)) else arg


def count_both(fn, *args) -> tuple[tuple[int, int], object]:
    """The calls of `fn(*args)` and the line events of `fn` on the `fresh` copies of
    `args`, counted in two runs, with the result of the first."""
    calls, result = count_calls(fn, *args)
    lines, same = count_lines(fn, *map(fresh, args))
    assert same == result
    return (calls, lines), result


def graph_tables(model: Model) -> tuple:
    """Build the graph of `model`, then read every table, so that each is built."""
    graph = build_graph(model)
    return graph.nodes, graph.closure_up, graph.closure_down, graph.related, graph.used_by, graph.edges


LOADING = ["parse_file", "validate"]
STAGES = ["build_graph", "serialize", "analyze_edit", "analyze_removal", "analyze_pruned"]


def edited(model):
    """`model` with the description of its first metric changed."""
    m_id, metric = next(iter(model.metrics.items()))
    return model._replace(metrics={**model.metrics, m_id: metric._replace(description="edited")})


def removed(model, objectives: int):
    """`model` without its last objective, a leaf of the refines tree."""
    return model._replace(objectives={k: v for k, v in model.objectives.items() if k != f"BO{objectives}"})


def pruned(model, objectives: int):
    """`model` without its last quarter of objectives, all leaves of the refines tree, so
    that the removals grow with the model."""
    kept = objectives - objectives // 4
    return model._replace(objectives={k: v for k, v in model.objectives.items() if int(k[2:]) <= kept})


@pytest.fixture(scope="module")
def loads(tmp_path_factory) -> dict[str, list[int]]:
    """Calls of each stage at N and 2N objectives, and under "<stage> lines" its line events."""
    counts: dict[str, list[int]] = {key: [] for stage in LOADING + STAGES for key in (stage, f"{stage} lines")}
    for objectives in (OBJECTIVES, 2 * OBJECTIVES + 1):
        path = tmp_path_factory.mktemp("linear") / f"program{objectives}.sym"
        path.write_text(serialize(program_model(random.Random(7), objectives=objectives)), encoding="utf-8")
        both, (model, diags) = count_both(parse_file, path)
        assert not diags
        measured = {"parse_file": both}
        for stage, fn, args in (
            ("validate", validate, (model,)),
            ("build_graph", graph_tables, (model,)),
            ("serialize", serialize, (model,)),
            ("analyze_edit", analyze, (model, edited(model))),
            ("analyze_removal", analyze, (model, removed(model, objectives))),
            ("analyze_pruned", analyze, (model, pruned(model, objectives))),
        ):
            measured[stage], result = count_both(fn, *args)
            assert result
        for stage, (calls, lines) in measured.items():
            counts[stage].append(calls)
            counts[f"{stage} lines"].append(lines)
    return counts


@pytest.mark.parametrize("stage", LOADING)
def test_model_loading_calls_grow_linearly_with_the_model(loads, stage):
    small, large = loads[stage]
    assert small > 10_000  # the counter saw the stage's work
    assert large / small <= MAX_RATIO, (stage, small, large)


@pytest.mark.parametrize("stage", STAGES)
def test_model_stage_calls_grow_linearly_with_the_model(loads, stage):
    small, large = loads[stage]
    assert small > 5_000  # the counter saw the stage's work
    assert large / small <= MAX_RATIO, (stage, small, large)


@pytest.mark.parametrize("stage", LOADING + STAGES)
def test_model_stage_line_events_grow_linearly_with_the_model(loads, stage):
    small, large = loads[f"{stage} lines"]
    assert small > 10_000  # the tracer saw the stage's work
    assert large / small <= MAX_RATIO, (stage, small, large)


# -- the pipeline, on the benchmark's programs and logs ------------------------------

LOG_LINES = 1200


# Each counted stage, its input doubled, and the largest ratio allowed; "<stage> lines" is
# its line events. Evaluation reads an index of the records, so twice the log lines add
# little to it.
PIPELINE = {
    "ingest_many by log lines": 2.0,
    "evaluate_metrics by log lines": 1.3,
    "evaluate_metrics by objectives": 2.2,
    "generate_report by objectives": 2.2,
    "evaluate_metrics by period keys": MAX_RATIO,
    "generate_report by period keys": MAX_RATIO,
    "ingest_many lines by log lines": 2.0,
    "evaluate_metrics lines by log lines": 1.3,
    "evaluate_metrics lines by objectives": 2.2,
    "generate_report lines by objectives": 2.2,
    "evaluate_metrics lines by period keys": MAX_RATIO,
    "generate_report lines by period keys": MAX_RATIO,
}


@pytest.fixture(scope="module")
def pipeline_loads(tmp_path_factory) -> dict[str, list[int]]:
    """Calls and line events of each pipeline stage before and after its input doubles."""
    gen = bench_workloads().gen
    out = str(tmp_path_factory.mktemp("pipeline"))
    counts = {}
    for objectives, lines in ((OBJECTIVES, LOG_LINES), (OBJECTIVES, 2 * LOG_LINES), (2 * OBJECTIVES + 1, LOG_LINES)):
        program = gen.program(out, 7, objectives, name=f"program{objectives}")
        model, diags = parse_file(program.root)
        assert not diags
        logs = gen.program_logs(out, 7, lines, name=f"log{lines}")
        ingest, log = count_both(ingest_many, logs.files, model)
        metrics = sorted(model.metrics)
        evaluate, (results, skipped) = count_both(evaluate_metrics, model, build_graph(model), log, metrics, gen.MONTHS)
        assert len(results) == 12 * len(metrics) and not skipped
        report, payload = count_both(generate_report, results, model, "json")
        assert payload
        counts[objectives, lines] = {"ingest_many": ingest, "evaluate_metrics": evaluate, "generate_report": report}
        if (objectives, lines) == (OBJECTIVES, LOG_LINES):
            keys = gen.MONTHS + [month.replace("2014", "2015") for month in gen.MONTHS]
            evaluate, (results, skipped) = count_both(evaluate_metrics, model, build_graph(model), log, metrics, keys)
            assert len(results) == 24 * len(metrics) and not skipped
            report, payload = count_both(generate_report, results, model, "json")
            assert payload
            more_keys = {"evaluate_metrics": evaluate, "generate_report": report}
    n, more_lines, more_objectives = counts.values()
    stages = {}
    for function, axis, doubled in (
        ("ingest_many", "log lines", more_lines),
        ("evaluate_metrics", "log lines", more_lines),
        ("evaluate_metrics", "objectives", more_objectives),
        ("generate_report", "objectives", more_objectives),
        ("evaluate_metrics", "period keys", more_keys),
        ("generate_report", "period keys", more_keys),
    ):
        small, large = n[function], doubled[function]
        stages[f"{function} by {axis}"] = [small[0], large[0]]
        stages[f"{function} lines by {axis}"] = [small[1], large[1]]
    return stages


@pytest.mark.parametrize("stage", PIPELINE)
def test_pipeline_stage_calls_grow_linearly_with_their_input(pipeline_loads, stage):
    small, large = pipeline_loads[stage]
    assert small > 5_000  # the counter saw the stage's work
    assert large / small <= PIPELINE[stage], (stage, small, large)


# -- the line cursor, which the profiler does not see ------------------------------------


class _TalliedText(str):
    """A text whose `count` and `rfind` add the characters they read to `read`.

    `count` reads from `start` to `end`, and `rfind` from `end` back to what
    it finds, or to `start`.
    """

    read = 0

    def count(self, sub, start=0, end=None):
        end = len(self) if end is None else end
        self.read += max(end - start, 0)
        return super().count(sub, start, end)

    def rfind(self, sub, start=0, end=None):
        end = len(self) if end is None else end
        found = super().rfind(sub, start, end)
        self.read += end - (start if found < 0 else found)
        return found


MAX_READS = 4  # characters read by `count` and `rfind` over the characters of the text


def _edited(rng: random.Random, text: str) -> str:
    """`text` with up to four lines dropped, copied or inserted."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(lines))
        edit = rng.choice(("drop", "copy", "insert"))
        if edit == "drop":
            del lines[at]
        elif edit == "copy":
            lines.insert(at, lines[rng.randrange(len(lines))])
        else:
            lines.insert(at, rng.choice(('include "inc.sym"', "@", "  rank: 1", "}", '  description: "open')))
    return "\n".join(lines)


def _assert_reads_are_bounded(text: _TalliedText, filename: str, table=None) -> None:
    model, _ = parse(text, filename, table)
    dict(model.spans)  # a load makes no declaration span; the first read works out each
    assert len(text) / 2 < text.read <= MAX_READS * len(text), (text.read, len(text))


def test_spans_read_each_character_a_bounded_number_of_times(tmp_path):
    # one line of blocks, each with an unknown field
    _assert_reads_are_bounded(_TalliedText(" ".join(f"goal G{i} {{ rank: 1 }}" for i in range(3000))), "line.sym")
    # each block's diagnostic 50 lines below its id
    comments = "".join(f"  # note {k}\n" for k in range(49))
    _assert_reads_are_bounded(_TalliedText("".join(f"goal G{i} {{\n{comments}  rank: 1\n}}\n" for i in range(1000))), "deep.sym")
    # edited programs, loaded with the block table of the unedited one
    (tmp_path / "inc.sym").write_text('stakeholder inc {\n  name: "i"\n}\n', encoding="utf-8")
    rng = random.Random(5)
    for seed in range(20):
        text = serialize(program_model(random.Random(seed), objectives=63))
        table: dict = {}
        parse(text, str(tmp_path / "old.sym"), table)
        _assert_reads_are_bounded(_TalliedText(_edited(rng, text)), str(tmp_path / "new.sym"), table)

"""Log ingestion, per-period aggregation, evaluation and action routing."""

import datetime as dt
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symbiosis_kit import pipeline
from symbiosis_kit.graph import build_graph
from symbiosis_kit.model import (
    NODE_KINDS,
    OWNERS,
    Action,
    ActionKind,
    ActionTarget,
    Aggregation,
    Granularity,
    ReportingSchedule,
    SourceMode,
    UnresolvedTarget,
)
from symbiosis_kit.parser import parse
from symbiosis_kit.periods import PeriodError
from symbiosis_kit.pipeline import (
    DirectEntry,
    EvaluationResult,
    MeasurementLog,
    aggregate,
    evaluate_period,
    ingest_lines,
    ingest_many,
    route_result,
)
from symbiosis_kit.validator import validate

MODEL_SRC = """
stakeholder s { name: "S" }
stakeholder o { name: "O" }
universe org { facets: a }
objective BO1 { object: "x" scope: org.* purpose: "p" viewpoint: o context: "c" }
objective BO2 { refines: BO1 object: "y" scope: org.* purpose: "p" viewpoint: o context: "c" }
goal MG1 { object: "g" scope: "s" purpose: "p" focus: "f" criteria: "c"
           viewpoint: o context: "c" measures: BO2 }
question Q1 { goal: MG1 text: "?" status: answered }
base ev { description: "d" mode: count where: kind = "x" }
base tot { description: "d" mode: direct aggregation: sum }
base g { description: "d" mode: direct aggregation: latest }
metric M {
    description: "d"
    goal: MG1
    answers: Q1
    uses: ev, tot
    method: "m"
    function: (ev / tot) * 100
    domain: [0, 100]
    band: [0, 50) -> low { escalate owner_of(BO2) log s }
    band: [50, 100] -> high { log s }
    schedule: monthly / quarterly
    stakeholders: s
}
metric M2 {
    description: "d"
    goal: MG1
    answers: Q1
    uses: g
    method: "m"
    function: g
    band: [0, 100] -> all { notify ghost }
    schedule: monthly / monthly
    stakeholders: s
}
"""


EMPTY = MeasurementLog((), {}, ())


@pytest.fixture(scope="module")
def model():
    parsed, diags = parse(MODEL_SRC)
    assert not diags
    return parsed


@pytest.fixture(scope="module")
def graph(model):
    return build_graph(model)


def dline(ts: str, base: str, value) -> str:
    return json.dumps({"timestamp": ts, "base": base, "value": value})


def eline(ts: str, **fields) -> str:
    return json.dumps({"timestamp": ts, "fields": fields})


# -- ingestion ---------------------------------------------------------------


def accepted_lines(lines: list[str], log: MeasurementLog) -> list[int]:
    """Line numbers of the accepted lines: the non-blank ones not diagnosed.

    There are as many as the log's DIRECT entries plus its tallied events.
    """
    diagnosed = {d.span.line for d in log.diagnostics}
    accepted = [n for n, line in enumerate(lines, 1) if line.strip() and n not in diagnosed]
    assert len(accepted) == len(log.records) + sum(n for days in log.events.values() for n in days.values())
    return accepted


def test_good_lines_produce_records(model):
    log = ingest_lines(
        ["", dline("2014-01-05", "tot", 3), "   ", eline("2014-01-06", kind="x")],
        "log", model,
    )
    assert not log.diagnostics
    (direct,) = log.records
    assert isinstance(direct, DirectEntry)
    assert (direct.base, direct.value, direct.line) == ("tot", 3.0, 2)
    assert log.events == {(("kind", "x"),): {dt.date(2014, 1, 6): 1}}


@pytest.mark.parametrize(
    "line, code, fragment",
    [
        ("not json at all", "I001", "malformed log line"),
        # json.loads' own words for a byte order mark, which its decoder alone lacks
        (
            "\ufeff" + dline("2014-01-05", "tot", 1),
            "I001",
            "malformed log line: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        ("[" * 100_000 + "]" * 100_000, "I001", "malformed log line: JSON nested too deeply"),
        ("[1, 2]", "I001", "not a JSON object"),
        ('{"timestamp": "2014-01-05", "base": "tot", "value": true}', "I001", "finite number"),
        ('{"timestamp": "2014-01-05", "base": "tot", "value": "9"}', "I001", "finite number"),
        ('{"timestamp": "2014-01-05", "base": "tot", "value": NaN}', "I001", "non-finite"),
        ('{"timestamp": "2014-01-05", "base": "tot", "value": Infinity}', "I001", "non-finite"),
        ('{"timestamp": "2014-01-05", "base": "tot", "value": 1e400}', "I001", "finite number"),
        ('{"timestamp": "2014-01-05", "base": "tot", "value": -1e400}', "I001", "finite number"),
        ('{"timestamp": "2014-01-05", "base": "tot", "value": 1' + "0" * 400 + "}", "I001", "finite number"),
        ('{"timestamp": "2014-01-05"}', "I001", "exactly one of"),
        (dline("2014-01-05", "tot", 1)[:-1] + ', "fields": {}}', "I001", "exactly one of"),
        ('{"timestamp": "2014-01-05", "fields": {"a": 1}}', "I001", "strings to strings"),
        ('{"base": "tot", "value": 1}', "I003", "invalid date"),
        (dline("2014-13-01", "tot", 1), "I003", "invalid date"),
        # forms date.fromisoformat takes on Python 3.11 but not on 3.10
        (dline("20140903", "tot", 1), "I003", "invalid date: Invalid isoformat string: '20140903'"),
        (dline("2014W363", "tot", 1), "I003", "invalid date: Invalid isoformat string: '2014W363'"),
        (dline("\u0662\u0660\u0661\u0664-\u0660\u0669-\u0660\u0663", "tot", 1), "I003", "invalid date"),
        (dline("2014-01-05", "nope", 1), "I002", "unknown base"),
        (dline("2014-01-05", "ev", 1), "I002", "not DIRECT mode"),
    ],
)
def test_bad_lines_become_diagnostics(model, line, code, fragment):
    log = ingest_lines([line], "log", model)
    assert not log.records and not log.events
    assert len(log.diagnostics) == 1
    diag = log.diagnostics[0]
    assert diag.code == code
    assert fragment in diag.message


@pytest.mark.parametrize(
    "line, fast",
    [
        ('{"timestamp": "2014-01-05", "base": "tot", "value": 1e-400}', True),
        ('{"timestamp": "2014-01-05", "base": "tot", "value":  1e-400}', False),  # decoded in full
    ],
    ids=["fast-path", "slow-path"],
)
def test_a_log_value_below_the_smallest_double_reads_as_zero(model, line, fast):
    # As in any JSON reader; a log value is never printed back, so unlike a
    # model literal it is not rejected.
    assert (oracles._SHAPES.fullmatch(line) is not None) == fast
    log = ingest_lines([line], "log", model)
    assert log.diagnostics == ()
    assert [(entry.base, entry.value) for entry in log.records] == [("tot", 0.0)]


def test_bad_lines_do_not_block_good_ones(model):
    log = ingest_lines(["garbage", dline("2014-01-05", "tot", 1)], "log", model)
    assert len(log.records) == 1
    assert len(log.diagnostics) == 1
    assert log.diagnostics[0].span.line == 1


def test_ingest_reads_files(model, tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(dline("2014-01-05", "tot", 2) + "\n", encoding="utf-8")
    log = ingest_many([str(path)], model)
    assert len(log.records) == 1
    assert not log.diagnostics


def test_ingest_drops_a_byte_order_mark_at_the_start_of_a_file(model, tmp_path):
    lines = [dline("2014-01-05", "tot", 2), eline("2014-01-06", kind="x")]
    plain = tmp_path / "plain.jsonl"
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    marked = tmp_path / "marked.jsonl"
    marked.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    log = ingest_many([str(marked)], model)
    assert not log.diagnostics
    unmarked = ingest_many([str(plain)], model)
    assert (log.records, log.events) == (unmarked.records, unmarked.events)
    assert accepted_lines(lines, log) == [1, 2]
    assert [record.line for record in log.records] == [1]
    assert log.events == {(("kind", "x"),): {dt.date(2014, 1, 6): 1}}


def test_ingest_ends_lines_only_at_newlines(model, tmp_path):
    # `str.splitlines` would also end a line at U+2028, U+0085, a form feed
    # and a vertical tab; a JSON string may hold the first two unescaped.
    lines = [
        json.dumps({"timestamp": "2014-01-05", "fields": {"kind": "x", "note": "a\u2028b"}}, ensure_ascii=False),
        json.dumps({"timestamp": "2014-01-06", "base": "tot", "value": 2, "note": "c\x85d"}, ensure_ascii=False)
        + "\x0b\x0c",
        dline("2014-01-07", "nope", 1),
    ]
    path = tmp_path / "x.jsonl"
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    log = ingest_many([str(path)], model)
    assert accepted_lines(lines, log) == [1, 2]
    assert log.events == {(("kind", "x"), ("note", "a\u2028b")): {dt.date(2014, 1, 5): 1}}
    assert [(record.line, record.value) for record in log.records] == [(2, 2.0)]
    assert [(d.code, d.span.line) for d in log.diagnostics] == [("I002", 3)]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="a \n\r", max_size=12))
def test_ingest_reads_the_lines_splitlines_gives_for_plain_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("log") / "x.jsonl"
    path.write_bytes(text.encode("utf-8"))
    lines = pipeline._read_lines(str(path))
    assert lines == text.replace("\r\n", "\n").replace("\r", "\n").splitlines()


# -- aggregation ---------------------------------------------------------------


def test_count_applies_all_filters(model):
    log = ingest_lines(
        [
            eline("2014-01-01", kind="x"),
            eline("2014-01-02", kind="x", extra="ignored"),
            eline("2014-01-03", kind="y"),
            eline("2014-02-01", kind="x"),  # outside the period
        ],
        "log", model,
    )
    assert aggregate(log, model.metrics["M"], "2014-01", model)["ev"] == 2.0


def test_count_of_nothing_is_zero_not_missing(model):
    bindings = aggregate(EMPTY, model.metrics["M"], "2014-01", model)
    assert bindings["ev"] == 0.0
    assert "tot" not in bindings  # DIRECT with no data stays missing


def test_sum_aggregation(model):
    log = ingest_lines(
        [dline("2014-01-05", "tot", 2), dline("2014-01-20", "tot", 3.5)],
        "log", model,
    )
    assert aggregate(log, model.metrics["M"], "2014-01", model)["tot"] == 5.5


def test_latest_takes_newest_timestamp_then_file_order(model):
    log = ingest_lines(
        [
            dline("2014-01-20", "g", 10),
            dline("2014-01-05", "g", 99),  # older, ignored
        ],
        "log", model,
    )
    assert aggregate(log, model.metrics["M2"], "2014-01", model)["g"] == 10.0

    tied = ingest_lines(
        [dline("2014-01-20", "g", 1), dline("2014-01-20", "g", 2)],
        "log", model,
    )
    assert aggregate(tied, model.metrics["M2"], "2014-01", model)["g"] == 2.0


# -- evaluation ---------------------------------------------------------------


def _log(model, lines):
    log = ingest_lines(lines, "log", model)
    assert not log.diagnostics
    return log


def test_evaluate_period_success(model, graph):
    log = _log(
        model,
        [eline("2014-01-01", kind="x")] * 30 + [dline("2014-01-31", "tot", 40)],
    )
    result = evaluate_period(model, graph, log, "M", "2014-01")
    assert result.ok
    assert result.value == 75.0
    assert result.band.label == "high"
    assert result.failure is None
    assert result.bindings == (("ev", 30.0), ("tot", 40.0))
    assert result.affected_objectives == ("BO2", "BO1")


def test_evaluate_period_missing_binding_becomes_failure(model, graph):
    result = evaluate_period(model, graph, EMPTY, "M", "2014-01")
    assert not result.ok
    assert result.value is None and result.band is None
    assert "tot" in result.failure


def test_evaluate_period_unknown_metric(model, graph):
    with pytest.raises(KeyError):
        evaluate_period(model, graph, EMPTY, "NOPE", "2014-01")


def test_evaluate_period_rejects_off_schedule_granularity(model, graph):
    with pytest.raises(PeriodError):
        evaluate_period(model, graph, EMPTY, "M", "2014-W05")


def test_a_schedule_runs_at_its_collection_and_reporting_granularities():
    schedule = ReportingSchedule(Granularity.MONTHLY, Granularity.QUARTERLY)
    assert [g for g in Granularity if schedule.runs_at(g)] == [Granularity.MONTHLY, Granularity.QUARTERLY]
    assert ReportingSchedule(Granularity.WEEKLY, Granularity.WEEKLY).runs_at(Granularity.WEEKLY)


def test_density_warnings_flag_empty_collection_periods(model, graph):
    log = _log(
        model,
        [eline("2014-01-01", kind="x"), dline("2014-01-31", "tot", 1)],
    )
    result = evaluate_period(model, graph, log, "M", "2014-Q1")
    assert result.density_warnings == (
        "collection period 2014-02 inside 2014-Q1 has no records for metric M",
        "collection period 2014-03 inside 2014-Q1 has no records for metric M",
    )
    # at collection granularity the period is its own sub-period: no warnings
    monthly = evaluate_period(model, graph, log, "M", "2014-01")
    assert monthly.density_warnings == ()
    # no schedule names a collection granularity; a finer period has no collection sub-periods
    unscheduled = model.metrics["M"]._replace(schedule=None)
    assert pipeline._density_warnings(unscheduled, log, "2014-Q1", model) == ()
    assert pipeline._density_warnings(model.metrics["M"], log, "2014-01-05", model) == ()


def test_aggregate_skips_a_use_that_names_no_base(model):
    log = _log(model, [eline("2014-01-01", kind="x"), dline("2014-01-31", "tot", 4)])
    metric = model.metrics["M"]._replace(uses=("ev", "ghost", "tot"))
    assert aggregate(log, metric, "2014-01", model) == {"ev": 1.0, "tot": 4.0}


# -- action routing -----------------------------------------------------------


def test_route_actions_orders_by_urgency_and_resolves_owner_of(model, graph):
    log = _log(
        model,
        [eline("2014-01-01", kind="x"), dline("2014-01-31", "tot", 4)],
    )
    result = evaluate_period(model, graph, log, "M", "2014-01")
    assert result.band.label == "low"  # 25.0
    directives = route_result(result, model)
    assert [d.kind for d in directives] == [ActionKind.LOG, ActionKind.ESCALATE]
    assert directives[0].stakeholders == ("s",)
    assert directives[1].stakeholders == ("o",)  # owner_of(BO2) -> its viewpoint
    assert "band 'low'" in directives[1].message
    assert "BO2, BO1" in directives[1].message


def test_route_result_failure_notifies_metric_stakeholders(model, graph):
    result = evaluate_period(model, graph, EMPTY, "M", "2014-01")
    directives = route_result(result, model)
    assert len(directives) == 1
    d = directives[0]
    assert d.kind is ActionKind.NOTIFY
    assert d.stakeholders == ("s",)
    assert d.band_label is None
    assert "could not be evaluated" in d.message
    assert "bindings present: ev" in d.message


def test_unresolved_action_target_raises(model):
    band = model.metrics["M2"].bands[0]  # notify ghost
    result = EvaluationResult(
        metric_id="M2", period="2014-01", bindings=(), value=10.0,
        failure=None, band=band, affected_objectives=(),
    )
    with pytest.raises(UnresolvedTarget):
        route_result(result, model)


def test_owner_of_a_question_is_an_unresolved_target(jpmorgan):
    owner_of_question = Action(ActionKind.ESCALATE, ActionTarget("Q1.1.1.1.1", is_owner=True))
    band = jpmorgan.metrics["ME1.1.1.1.1"].bands[0]._replace(actions=(owner_of_question,))
    result = EvaluationResult(
        metric_id="ME1.1.1.1.1", period="2014-09", bindings=(), value=10.0,
        failure=None, band=band, affected_objectives=(),
    )
    with pytest.raises(UnresolvedTarget) as exc:
        route_result(result, jpmorgan)
    assert str(exc.value) == "owner_of target 'Q1.1.1.1.1' must be an objective, goal or metric (got question)"


def test_owner_of_goal_and_metric_resolve(model):
    src = MODEL_SRC + """
metric M3 {
    description: "d" goal: MG1 answers: Q1 uses: g method: "m" function: g
    band: [0, 100] -> all { escalate owner_of(MG1) escalate owner_of(M) }
    schedule: monthly / monthly
    stakeholders: s
}
"""
    bigger, diags = parse(src)
    assert not diags
    band = bigger.metrics["M3"].bands[0]
    result = EvaluationResult(
        metric_id="M3", period="2014-01", bindings=(), value=5.0,
        failure=None, band=band, affected_objectives=(),
    )
    directives = route_result(result, bigger)
    assert [d.stakeholders for d in directives] == [("o",), ("s",)]


def _v002_and_routing(model, target):
    """The V002 messages of `model` with one band's actions replaced by an action at
    `target`, and the UnresolvedTarget that routing the band raises, or None."""
    metric = model.metrics["ME1.1.1.1.1"]
    band = metric.bands[0]._replace(actions=(Action(ActionKind.ESCALATE, target),))
    changed = model._replace(metrics={**model.metrics, metric.id: metric._replace(bands=(band, *metric.bands[1:]))})
    v002 = [d.message for d in validate(changed) if d.code == "V002"]
    result = EvaluationResult(
        metric_id=metric.id, period="2014-09", bindings=(), value=10.0,
        failure=None, band=band, affected_objectives=(),
    )
    try:
        route_result(result, changed)
    except UnresolvedTarget as exc:
        return v002, exc
    return v002, None


# Every node kind, and an id that is no node.
_TARGET_KINDS = [*NODE_KINDS, pytest.param(None, id="undeclared")]


def _assert_one_text(jpmorgan, kind, is_owner):
    target = ActionTarget(min(jpmorgan.collection(kind)) if kind else "NOPE", is_owner)
    v002, exc = _v002_and_routing(jpmorgan, target)
    assert v002 == ([] if exc is None else [str(exc)])
    assert (exc is None) == (kind in OWNERS if is_owner else kind == "stakeholder")


@pytest.mark.parametrize("kind", _TARGET_KINDS)
def test_the_validator_and_the_router_agree_on_owner_of(jpmorgan, kind):
    """V002 flags an owner_of target exactly when routing cannot resolve it, in the router's words."""
    _assert_one_text(jpmorgan, kind, is_owner=True)


@pytest.mark.parametrize("kind", _TARGET_KINDS)
def test_the_validator_and_the_router_agree_on_plain_targets(jpmorgan, kind):
    """V002 flags a plain target exactly when routing cannot resolve it, in the router's words."""
    _assert_one_text(jpmorgan, kind, is_owner=False)


@pytest.mark.parametrize(
    ("target", "text"),
    [
        (ActionTarget("NOPE"), "action references undeclared id 'NOPE'"),
        (ActionTarget("Q1.1.1.1.1"), "action references 'Q1.1.1.1.1' which is a question, not a stakeholder"),
        (ActionTarget("NOPE", is_owner=True), "action owner_of references undeclared id 'NOPE'"),
        (
            ActionTarget("Q1.1.1.1.1", is_owner=True),
            "owner_of target 'Q1.1.1.1.1' must be an objective, goal or metric (got question)",
        ),
    ],
    ids=["plain-undeclared", "plain-wrong-kind", "owner_of-undeclared", "owner_of-wrong-kind"],
)
def test_an_unresolved_target_has_one_text(jpmorgan, target, text):
    v002, exc = _v002_and_routing(jpmorgan, target)
    assert v002 == [text]
    assert str(exc) == text


def test_result_json_shape(model, graph):
    log = _log(
        model,
        [eline("2014-01-01", kind="x"), dline("2014-01-31", "tot", 2)],
    )
    obj = evaluate_period(model, graph, log, "M", "2014-01").to_json_obj()
    assert obj["metric"] == "M"
    assert obj["value"] == 50.0
    assert obj["band"] == "high"
    assert obj["bindings"] == {"ev": 1.0, "tot": 2.0}
    json.dumps(obj)  # must be serializable as-is

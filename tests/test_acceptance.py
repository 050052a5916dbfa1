"""End-to-end conformance gate.

Each test covers one numbered criterion; the conftest hook prints a PASS/FAIL
line per criterion in the terminal summary. Tolerances are stated inline; the
worked-scenario numbers are exact ratios of small integers, so equality is
exact there by design.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from modelgen import (
    BAND_DOMAIN_HI_U,
    metric_from_band_set,
    micro_to_float,
    random_band_set,
    random_dag_model,
    random_model,
)
from oracles import brute_force_count, ingest_lines_by_decoding, orphans_after_removal, sweep_band_defects
from symbiosis_kit.evaluator import classify
from symbiosis_kit.graph import build_graph
from symbiosis_kit.impact import Change, ChangeKind, impact
from symbiosis_kit.model import (
    ActionKind,
    Aggregation,
    BaseMeasurementDef,
    Model,
    SourceMode,
    canonical_dump,
)
from symbiosis_kit.parser import parse, parse_file
from symbiosis_kit.pipeline import evaluate_period, ingest_lines, ingest_many, route_result
from symbiosis_kit.report import generate_report
from symbiosis_kit.serializer import serialize
from symbiosis_kit.validator import band_partition_problems, validate


def _eval(model, graph, log, metric_id: str, period: str):
    return evaluate_period(model, graph, log, metric_id, period)


def test_criterion_1_jpmorgan_monthly_evaluation(jpmorgan, jpmorgan_logs):
    """Induction-training metric across three months: exact values, bands, actions."""
    graph = build_graph(jpmorgan)
    log = ingest_many(jpmorgan_logs, jpmorgan)
    assert not log.diagnostics

    month_a = _eval(jpmorgan, graph, log, "ME1.1.1.1.1", "2014-01")
    assert month_a.value == 100.0
    assert month_a.band is not None and month_a.band.label == "ok"
    directives = route_result(month_a, jpmorgan)
    assert [d.kind for d in directives] == [ActionKind.LOG]

    month_b = _eval(jpmorgan, graph, log, "ME1.1.1.1.1", "2014-09")
    assert month_b.value == 70.0
    assert month_b.band is not None and month_b.band.label == "watch"
    directives = route_result(month_b, jpmorgan)
    assert [d.kind for d in directives] == [ActionKind.NOTIFY]
    assert directives[0].stakeholders == ("training_manager",)

    month_c = _eval(jpmorgan, graph, log, "ME1.1.1.1.1", "2014-11")
    assert month_c.value == 50.0
    assert month_c.band is not None and month_c.band.label == "intervene"
    directives = route_result(month_c, jpmorgan)
    assert all(d.kind is ActionKind.ESCALATE for d in directives)
    # owner_of on the next objective up resolves to the CISO
    assert ("ciso",) in [d.stakeholders for d in directives]

    for result in (month_a, month_b, month_c):
        assert result.affected_objectives == ("BO1.1.1", "BO1.1", "BO1")


def test_criterion_2_anthem_band_routing(anthem, corpus):
    """Credential-justification metric: 100 logs, 95 notifies, 85 escalates."""
    graph = build_graph(anthem)
    log = ingest_many([str(corpus / "logs" / "anthem_2015.jsonl")], anthem)
    assert not log.diagnostics

    at_100 = _eval(anthem, graph, log, "ME2", "2015-01")
    assert at_100.value == 100.0
    assert at_100.band.label == "ok"
    kinds = [d.kind for d in route_result(at_100, anthem)]
    assert ActionKind.NOTIFY not in kinds and ActionKind.ESCALATE not in kinds

    at_95 = _eval(anthem, graph, log, "ME2", "2015-02")
    assert at_95.value == 95.0
    assert at_95.band.label == "notify"
    directives = route_result(at_95, anthem)
    assert all(d.kind is ActionKind.NOTIFY for d in directives)
    assert {s for d in directives for s in d.stakeholders} == {"ciso", "dba"}

    at_85 = _eval(anthem, graph, log, "ME2", "2015-03")
    assert at_85.value == 85.0
    assert at_85.band.label == "escalate"
    directives = route_result(at_85, anthem)
    assert all(d.kind is ActionKind.ESCALATE for d in directives)
    assert {s for d in directives for s in d.stakeholders} == {
        "privacy_manager",
        "compliance_manager",
    }


def test_criterion_3_scope_coverage_lint(corpus):
    """Broken decomposition: one V009 naming the internal-traffic facet; fixed: none."""
    model, diags = parse_file(corpus / "heartland_broken.sym")
    findings = [d for d in diags + validate(model) if d.code == "V009"]
    assert len(findings) == 1
    assert findings[0].node_id == "BO3"
    assert "data_in_motion_internal" in findings[0].message

    fixed, diags = parse_file(corpus / "heartland_fixed.sym")
    assert not [d for d in diags + validate(fixed) if d.code == "V009"]


# Expected formulations, compared after whitespace normalization.
_EXPECTED_SENTENCES = {
    "BO1": (
        "One of our primary business objectives is to apply a systematic approach "
        "to effectively manage security of our information assets company-wide, "
        "from the viewpoint of the CEO and CISO, while taking into account the "
        "legally imposed deadline for doing so. This business objective depends "
        "on the achievement of BO1.1"
    ),
    "BO1.1": (
        "Analyse the implemented ISMS including all elements within its scope "
        "such as policies, procedures, control objectives, controls(...) for the "
        "purpose of assessing their effectiveness from the viewpoint of the CISO, "
        "before the next scheduled audit, within the allotted budget. "
        "This objective depends on BO1.1.1"
    ),
    "BO1.1.1": (
        "Analyse the controls implemented for the purposes of ensuring Human "
        "Resource Security, including all control relevant to human resource "
        "security prior, during and following the termination or change of "
        "employment, for the purpose of assessing their effectiveness from the "
        "viewpoint of the Information Security Operations Manager, before the "
        "next scheduled audit, within the allotted budget."
    ),
    "MG1.1.1.1": (
        "Analyse the information security awareness, education and training "
        "process and specifically the content and activities, for the purpose of "
        "evaluating their effectiveness, with respect to currentness, reviewing "
        "frequency (...), from the viewpoint of the manager responsible for "
        "security awareness, education and training taking into account the "
        "timing (before the next audit) and risk considerations to define "
        "priorities."
    ),
}


def _normalize(text: str) -> str:
    return " ".join(text.split())


def test_criterion_4_formulation_sentences(jpmorgan, corpus):
    """render of BO1, BO1.1, BO1.1.1 and MG1.1.1.1 matches the expected text."""
    from symbiosis_kit.formulation import render_formulation

    for node_id, expected in _EXPECTED_SENTENCES.items():
        rendered = render_formulation(jpmorgan, node_id)
        assert _normalize(rendered) == _normalize(expected), node_id
        golden = (corpus / "golden" / f"jpmorgan_render_{node_id}.txt").read_text(
            encoding="utf-8"
        )
        assert _normalize(golden) == _normalize(expected), node_id


def test_criterion_5_serialize_parse_fixpoint(corpus):
    """Corpus models plus 500 random models: serialize then parse is a fixpoint."""
    for name in ("jpmorgan.sym", "anthem.sym", "heartland_broken.sym", "heartland_fixed.sym"):
        model, diags = parse_file(corpus / name)
        assert not any(d.is_error for d in diags), name
        reparsed, rediags = parse(serialize(model))
        assert not any(d.is_error for d in rediags), name
        assert canonical_dump(reparsed) == canonical_dump(model), name

    rng = random.Random(20140903)
    for i in range(500):
        model = random_model(rng, max_nodes=30)
        reparsed, diags = parse(serialize(model))
        assert not any(d.is_error for d in diags), f"model {i}"
        assert canonical_dump(reparsed) == canonical_dump(model), f"model {i}"


def test_criterion_6_band_partition_property():
    """1000 band sets agree with the 1e-6 sweep; clean metrics classify uniquely."""
    rng = random.Random(60606)
    clean_metrics = []
    for i in range(1000):
        bands_u = random_band_set(rng)
        metric = metric_from_band_set(bands_u)
        fired = bool(band_partition_problems(metric))
        uncovered, doubled = sweep_band_defects(bands_u, 0, BAND_DOMAIN_HI_U)
        assert fired == (uncovered or doubled), f"set {i}: {bands_u}"
        if not fired:
            clean_metrics.append(metric)

    assert clean_metrics, "generator produced no partition-clean band sets"
    for metric in clean_metrics:
        for _ in range(1000 // len(clean_metrics) + 1):
            value = (
                micro_to_float(rng.randint(0, BAND_DOMAIN_HI_U))
                if rng.random() < 0.5
                else rng.uniform(0.0, micro_to_float(BAND_DOMAIN_HI_U))
            )
            containing = [b for b in metric.bands if b.interval.contains(value)]
            assert len(containing) == 1, (metric.bands, value)
            assert classify(metric, value) is containing[0]


_FIELD_VALUES = {"event": ("login", "training", "scan"), "status": ("done", "failed"), "site": ("hq", "remote")}


def test_criterion_7_count_aggregation_oracle():
    """COUNT on 200 random logs equals brute-force filter-and-count."""
    import datetime as dt

    from symbiosis_kit.pipeline import aggregate
    from symbiosis_kit.model import MetricDef

    rng = random.Random(77)
    start = dt.date(2013, 12, 1)
    period_pool = (
        ["2014"]
        + [f"2014-{m:02d}" for m in range(1, 13)]
        + [f"2014-Q{q}" for q in range(1, 5)]
        + [f"2014-W{w:02d}" for w in (1, 9, 26, 52)]
        + ["2014-03-15", "2014-07-01"]
    )
    for i in range(200):
        lines = []
        for _ in range(rng.randint(0, 100)):
            day = (start + dt.timedelta(days=rng.randint(0, 420))).isoformat()
            fields = {
                name: rng.choice(values)
                for name, values in _FIELD_VALUES.items()
                if rng.random() < 0.8
            }
            lines.append(json.dumps({"timestamp": day, "fields": fields}))
        n_filters = rng.randint(0, 2)
        names = rng.sample(sorted(_FIELD_VALUES), n_filters)
        filters = tuple((name, rng.choice(_FIELD_VALUES[name])) for name in names)
        base = BaseMeasurementDef("bm_events", "d", SourceMode.COUNT, filters, None)
        model = Model(bases={"bm_events": base})
        log = ingest_lines(lines, f"<log {i}>", model)
        assert not log.diagnostics
        metric = MetricDef(
            id="ME_count", description="d", goal="", answers=(), uses=("bm_events",),
            method="m", function=None, bands=(), schedule=None, stakeholders=(),
        )
        period = rng.choice(period_pool)
        bindings = aggregate(log, metric, period, model)
        expected = brute_force_count(ingest_lines_by_decoding(lines, "log", model).records, filters, period)
        assert bindings["bm_events"] == expected, (i, period, filters)


def test_criterion_8_impact_orphan_oracle(jpmorgan):
    """Orphans after removing any node match a from-scratch recompute; JP Morgan spot check."""
    rng = random.Random(88)
    for i in range(200):
        model = random_dag_model(rng, max_nodes=20)
        graph = build_graph(model)
        for node_id in sorted(graph.nodes):
            change = Change(ChangeKind.REMOVED, graph.nodes[node_id], node_id)
            report = impact(model, change, graph)
            assert set(report.downstream_orphans) == orphans_after_removal(model, node_id), (
                i,
                node_id,
            )

    report = impact(jpmorgan, Change(ChangeKind.REMOVED, "objective", "BO1.1.1"))
    expected = {"MG1.1.1.1"}
    expected |= {f"Q1.1.1.1.{n}" for n in range(1, 7)}
    expected |= {f"ME1.1.1.1.{n}" for n in range(1, 7)}
    assert set(report.downstream_orphans) == expected


def test_criterion_9_report_determinism(corpus, jpmorgan_logs):
    """Two independent runs of the JSON and SVG reports are byte-identical."""
    quarters = ["2014-Q1", "2014-Q2", "2014-Q3"]
    months_01_09 = [p for p in jpmorgan_logs if not p.endswith("2014-11.jsonl")]

    def run() -> dict[str, bytes]:
        model, diags = parse_file(corpus / "jpmorgan.sym")
        assert not diags and not validate(model)
        graph = build_graph(model)
        log = ingest_many(months_01_09, model)
        results = [
            evaluate_period(model, graph, log, metric_id, quarter)
            for metric_id in sorted(model.metrics)
            for quarter in quarters
        ]
        return {
            fmt: generate_report(results, model, fmt) for fmt in ("json", "svg")
        }

    first, second = run(), run()
    assert first["json"] == second["json"]
    assert first["svg"] == second["svg"]

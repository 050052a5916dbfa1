"""One test (at least) per validation rule V001-V013."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelgen import random_model
from oracles import band_partition_problems_by_frontier, validate_as_written
from symbiosis_kit.diagnostics import Severity, SourceSpan, render_all, sort_key, to_json
from symbiosis_kit.model import DEFAULT_DOMAIN, FIELDS, NODE_TYPES, InterpretationBand, Interval, MetricDef
from symbiosis_kit.parser import parse, parse_file
from symbiosis_kit.serializer import serialize
from symbiosis_kit.validator import band_partition_problems, validate


def check(src: str):
    model, parse_diags = parse(src)
    assert not parse_diags, parse_diags
    return validate(model)


def only(diags, code: str):
    return [d for d in diags if d.code == code]


# -- V001 -----------------------------------------------------------------


def test_v001_duplicate_identifier_across_kinds():
    diags = only(check("objective X { }\ngoal X { }"), "V001")
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR
    assert "first declared as objective" in diags[0].message


def test_v001_reports_each_later_declaration_across_kinds_and_includes(tmp_path):
    main, part = tmp_path / "main.sym", tmp_path / "part.sym"
    main.write_text('stakeholder X { name: "x" }\ninclude "part.sym"\ngoal X { }\n', encoding="utf-8")
    part.write_text('objective X { }\nstakeholder Y { name: "y" }\n', encoding="utf-8")
    model, parse_diags = parse_file(str(main))
    assert not parse_diags
    message = f"duplicate identifier 'X' (first declared as stakeholder at {main}:1:13)"
    assert [(d.code, d.span, d.node_id, d.message) for d in only(validate(model), "V001")] == [
        ("V001", SourceSpan(str(main), 3, 6, 1), "X", message),
        ("V001", SourceSpan(str(part), 1, 11, 1), "X", message),
    ]


# -- V002 -----------------------------------------------------------------


def test_v002_undeclared_reference():
    diags = only(check("objective BO1 { refines: BOX }"), "V002")
    assert len(diags) == 1
    assert "undeclared id 'BOX'" in diags[0].message


def test_v002_wrong_kind_reference():
    src = 'stakeholder s { name: "S" }\ngoal MG1 { measures: s }'
    diags = only(check(src), "V002")
    assert len(diags) == 1
    assert "which is a stakeholder" in diags[0].message


def test_v002_unknown_facet_in_scope():
    src = "universe u { facets: a, b }\nobjective BO1 { scope: u.{a, c} }"
    diags = only(check(src), "V002")
    assert len(diags) == 1
    assert "facet 'c'" in diags[0].message


def test_v002_owner_of_must_target_owned_node():
    src = (
        'stakeholder s { name: "S" }\n'
        "metric M { band: [0, 100] -> x { escalate owner_of(s) } }\n"
        "metric N { band: [0, 100] -> x { escalate owner_of(NOPE) } }"
    )
    diags = only(check(src), "V002")
    assert len(diags) == 2
    messages = " | ".join(d.message for d in diags)
    assert "must be an objective, goal or metric" in messages
    assert "undeclared id 'NOPE'" in messages


def test_v002_step_spawn_must_refine_the_strategy_objective():
    src = (
        "objective BO1 { }\nobjective BO2 { }\n"
        'strategy ST1 { for: BO1 step: "do" -> BO2 justification: "j" }'
    )
    diags = only(check(src), "V002")
    assert len(diags) == 1
    assert "whose refines is not 'BO1'" in diags[0].message


# -- V003 -----------------------------------------------------------------


def test_v003_refines_cycle_reported_once():
    src = "objective BO1 { refines: BO2 }\nobjective BO2 { refines: BO1 }"
    diags = only(check(src), "V003")
    assert len(diags) == 1
    assert "BO1 -> BO2 -> BO1" in diags[0].message


def test_v003_self_cycle():
    diags = only(check("objective BO1 { refines: BO1 }"), "V003")
    assert len(diags) == 1
    assert "BO1 -> BO1" in diags[0].message


# -- V004 -----------------------------------------------------------------


def test_v004_only_unmeasured_leaves_flagged():
    src = (
        "objective BO1 { }\n"
        "objective BO1.1 { refines: BO1 }\n"
        "objective BO1.2 { refines: BO1 }\n"
        "goal MG1 { measures: BO1.1 }"
    )
    diags = only(check(src), "V004")
    assert [d.node_id for d in diags] == ["BO1.2"]
    assert diags[0].severity is Severity.WARNING


# -- V005 -----------------------------------------------------------------


def test_v005_goal_without_question():
    src = (
        "objective BO1 { }\n"
        "goal MG1 { measures: BO1 }\n"
        "goal MG2 { measures: BO1 }\n"
        'question Q1 { goal: MG2 text: "?" }'
    )
    diags = only(check(src), "V005")
    assert [d.node_id for d in diags] == ["MG1"]


# -- V006 -----------------------------------------------------------------


def test_v006_both_directions():
    src = (
        "objective BO1 { }\n"
        "goal MG1 { measures: BO1 }\n"
        'question Q1 { goal: MG1 text: "?" status: answered }\n'
        'question Q2 { goal: MG1 text: "?" }\n'
        "metric M { goal: MG1 answers: Q2 }"
    )
    diags = only(check(src), "V006")
    by_node = {d.node_id: d.message for d in diags}
    assert "no metric cites it" in by_node["Q1"]
    assert "still marked open" in by_node["Q2"]


# -- V007 -----------------------------------------------------------------


def test_v007_function_variable_not_in_uses():
    src = (
        'base a { description: "d" mode: direct aggregation: sum }\n'
        "metric M { uses: a function: a / b }"
    )
    diags = only(check(src), "V007")
    assert len(diags) == 1
    assert "'b'" in diags[0].message


# -- V008 -----------------------------------------------------------------


def test_v008_gap_between_bands():
    src = (
        "metric M { domain: [0, 100] "
        "band: [0, 60] -> low { log t } band: [70, 100] -> high { log t } }"
    )
    diags = only(check(src), "V008")
    assert len(diags) == 1
    assert "gap (60, 70)" in diags[0].message


def test_v008_overlap():
    src = (
        "metric M { domain: [0, 100] "
        "band: [0, 60] -> low { log t } band: [50, 100] -> high { log t } }"
    )
    diags = only(check(src), "V008")
    assert len(diags) == 1
    assert "overlap on [50, 60]" in diags[0].message


def test_v008_shared_boundary_point():
    # Both bands closed at 60: the point is doubly covered.
    src = (
        "metric M { domain: [0, 100] "
        "band: [0, 60] -> low { log t } band: [60, 100] -> high { log t } }"
    )
    diags = only(check(src), "V008")
    assert len(diags) == 1
    assert "[60, 60]" in diags[0].message


def test_v008_band_mass_outside_domain_ignored():
    src = (
        "metric M { domain: [0, 100] "
        "band: [0, 100] -> all { log t } band: [150, 200] -> ghost { log t } }"
    )
    assert only(check(src), "V008") == []


def test_v008_gap_after_nested_bands():
    model, _ = parse(
        "metric M { domain: [0, 100] "
        "band: [0, 20] -> a { log t } band: [5, 10] -> b { log t } "
        "band: (20, 100] -> c { log t } }"
    )
    problems = band_partition_problems(model.metrics["M"])
    # nested band overlaps but must not move the covered cut backwards
    assert any("overlap on [5, 10]" in p for p in problems)
    assert not any("gap" in p for p in problems)


def test_v008_clean_partition_with_open_edges():
    src = (
        "metric M { domain: [0, 100] "
        "band: [0, 60] -> low { log t } band: (60, 90] -> mid { log t } "
        "band: (90, 100] -> high { log t } }"
    )
    assert only(check(src), "V008") == []


# Endpoints from a few values so bands tie with each other and with the
# domains' ends; a band may be inverted (lo > hi) or lie outside its domain.
_ENDPOINTS = st.sampled_from([-5.0, 0.0, 2.5, 5.0, 10.0, 50.0, 60.0, 100.0, 120.0])
_INTERVALS = st.builds(Interval, _ENDPOINTS, _ENDPOINTS, st.booleans(), st.booleans())
_DOMAINS = st.sampled_from([None, Interval(0.0, 100.0), Interval(0.0, 10.0, False, True)])


@settings(max_examples=1500, deadline=None)
@given(st.lists(_INTERVALS, max_size=6), _DOMAINS)
def test_v008_matches_the_frontier_walk_on_random_band_schemes(intervals, domain):
    bands = tuple(InterpretationBand(iv, f"b{i}") for i, iv in enumerate(intervals))
    metric = MetricDef("M", bands=bands, domain=domain)
    assert band_partition_problems(metric) == band_partition_problems_by_frontier(metric)


# -- V009 -----------------------------------------------------------------


_V009_BASE = (
    "universe u { facets: a, b, c }\n"
    "universe v { facets: z }\n"
    'objective BO1 { scope: u.* }\n'
    "objective BO1.1 { refines: BO1 scope: u.{a} }\n"
)


def test_v009_partial_child_coverage():
    src = _V009_BASE + "objective BO1.2 { refines: BO1 scope: u.{b} }"
    diags = only(check(src), "V009")
    assert len(diags) == 1
    assert diags[0].node_id == "BO1"
    assert "missing facets c" in diags[0].message


def test_v009_clean_when_children_cover_everything():
    src = _V009_BASE + "objective BO1.2 { refines: BO1 scope: u.{b, c} }"
    assert only(check(src), "V009") == []


def test_v009_skipped_for_mixed_universes():
    src = _V009_BASE + "objective BO1.2 { refines: BO1 scope: v.* }"
    assert only(check(src), "V009") == []


def test_v009_parent_selection_limits_the_target():
    src = (
        "universe u { facets: a, b, c }\n"
        "objective BO1 { scope: u.{a, b} }\n"
        "objective BO1.1 { refines: BO1 scope: u.{a} }"
    )
    diags = only(check(src), "V009")
    assert len(diags) == 1
    assert "missing facets b" in diags[0].message  # c is outside the parent's claim


# -- V010 -----------------------------------------------------------------


def test_v010_missing_required_fields_enumerated():
    diags = only(check("metric M { }"), "V010")
    fields = {d.message.split("'")[-2] for d in diags}
    assert {"description", "goal", "answers", "uses", "method", "function", "band", "schedule"} <= fields


def test_v010_priority_needs_justification_and_positivity():
    src = 'objective BO1 { object: "o" priority: 0 }'
    messages = [d.message for d in only(check(src), "V010")]
    assert any("priority must be a positive integer" in m for m in messages)
    assert any("'priority_justification'" in m for m in messages)


def test_v010_schedule_cannot_report_finer_than_collection():
    src = "metric M { schedule: quarterly / monthly }"
    messages = [d.message for d in only(check(src), "V010")]
    assert any("more often than it collects" in m for m in messages)


def test_v010_count_base_needs_filters_direct_needs_aggregation():
    src = (
        'base c { description: "d" mode: count }\n'
        'base d { description: "d" mode: direct }'
    )
    diags = only(check(src), "V010")
    by_node = {d.node_id: d.message for d in diags}
    assert "'where'" in by_node["c"]
    assert "'aggregation'" in by_node["d"]


# -- V011 -----------------------------------------------------------------


def test_v011_empty_stakeholder_and_viewpoint_lists():
    src = "objective BO1 { }\ngoal MG1 { measures: BO1 }\nmetric M { }"
    diags = only(check(src), "V011")
    nodes = {d.node_id for d in diags}
    assert nodes == {"MG1", "M"}
    assert all(d.severity is Severity.WARNING for d in diags)


# -- V012 -----------------------------------------------------------------


def test_v012_answered_question_must_belong_to_metric_goal():
    src = (
        "objective BO1 { }\n"
        "goal MG1 { measures: BO1 }\ngoal MG2 { measures: BO1 }\n"
        'question Q2 { goal: MG2 text: "?" }\n'
        "metric M { goal: MG1 answers: Q2 }"
    )
    diags = only(check(src), "V012")
    assert len(diags) == 1
    assert "belongs to goal 'MG2', not 'MG1'" in diags[0].message


# -- V013 -----------------------------------------------------------------


def test_v013_affects_without_reciprocal_depends_on():
    src = "objective BO1 { affects: BO2 }\nobjective BO2 { }"
    diags = only(check(src), "V013")
    assert len(diags) == 1
    assert "does not declare depends_on" in diags[0].message


def test_v013_clean_when_reciprocated():
    src = "objective BO1 { affects: BO2 }\nobjective BO2 { depends_on: BO1 }"
    assert only(check(src), "V013") == []


# -- output discipline ------------------------------------------------------


def test_validate_output_is_sorted_and_deterministic(jpmorgan):
    first = validate(jpmorgan)
    second = validate(jpmorgan)
    assert first == second
    assert first == sorted(first, key=sort_key)


def test_corpus_models_validate_clean(jpmorgan, anthem):
    assert validate(jpmorgan) == []
    assert validate(anthem) == []


# -- the field table's V002 and V010 columns ----------------------------------


def test_every_reference_row_names_ids_and_a_node_kind():
    rows = [(kind, f) for kind, fields in FIELDS.items() for f in fields if f.target]
    assert len(rows) == 15
    for kind, f in rows:
        assert f.value_kind in ("ident", "ident_list", "scope", "step"), (kind, f.name)
        assert f.target in NODE_TYPES, (kind, f.name)


# -- differential check against the validator as written field by field -------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*")


def _mutants(rng: random.Random, text: str, ids: list[str]):
    """Copies of `text` with lines dropped, and with two identifiers swapped."""
    lines = text.splitlines(keepends=True)
    for _ in range(2):
        kept = [line for line in lines if rng.random() > 0.1]
        yield "".join(kept)
    for _ in range(2):
        if len(ids) < 2:
            return
        a, b = rng.sample(ids, 2)
        swap = {a: b, b: a}
        yield _IDENT_RE.sub(lambda m: swap.get(m[0], m[0]), text)


def _assert_same_findings(model) -> str:
    expected = validate_as_written(model)
    found = validate(model)
    assert render_all(found) == render_all(expected)
    assert to_json(found) == to_json(expected)
    return render_all(found)


def test_validate_matches_the_validator_as_written_on_random_models():
    rng = random.Random(90210)
    codes = ""
    for _ in range(150):
        text = serialize(random_model(rng, max_nodes=30))
        model, _ = parse(text)
        codes += _assert_same_findings(model)
        for mutant in _mutants(rng, text, sorted(model.kinds)):
            codes += _assert_same_findings(parse(mutant)[0])
    # The set exercises both rules the field table drives, in both V002 shapes.
    assert codes.count(" references undeclared id ") > 1000
    assert codes.count(", not a ") > 5000
    assert codes.count("is missing required field") > 5000
    # Metrics that share a band scheme, or differ from one only in a band label
    # or only in the domain: the validator works each scheme out once, the
    # validator as written once per metric.
    rng = random.Random(4242)
    codes = ""
    for _ in range(60):
        model = _with_shared_band_schemes(rng, random_model(rng, max_nodes=30))
        codes += _assert_same_findings(parse(serialize(model))[0])
    assert codes.count(" is not covered by any band") > 300
    assert codes.count(" overlap on ") > 100


def _with_shared_band_schemes(rng: random.Random, model):
    """`model` plus, for each metric with bands, a copy with the same bands and
    domain, one with another label on one band, one with no domain where it
    has the default [0, 100] and that domain written out otherwise, and one
    with a wider domain."""
    metrics = dict(model.metrics)
    for m_id, metric in model.metrics.items():
        if not metric.bands:
            continue
        bands = list(metric.bands)
        i = rng.randrange(len(bands))
        bands[i] = bands[i]._replace(label=bands[i].label + "x")
        domain = metric.effective_domain()
        copies = {
            "same": metric,
            "label": metric._replace(bands=tuple(bands)),
            "default": metric._replace(domain=None if metric.domain == DEFAULT_DOMAIN else DEFAULT_DOMAIN),
            "wider": metric._replace(domain=domain._replace(hi=domain.hi + 1)),
        }
        for suffix, copy in copies.items():
            metrics[f"{m_id}_{suffix}"] = copy._replace(id=f"{m_id}_{suffix}")
    return model._replace(metrics=metrics)


@pytest.mark.parametrize(
    "name", ["jpmorgan.sym", "anthem.sym", "heartland_broken.sym", "heartland_fixed.sym"]
)
def test_validate_matches_the_validator_as_written_on_the_corpus(corpus, name):
    model, _ = parse_file(corpus / name)
    _assert_same_findings(model)

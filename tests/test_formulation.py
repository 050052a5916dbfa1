"""Formulation-sentence templates for objectives and measurement goals."""

import pytest

from symbiosis_kit.formulation import (
    MissingFieldError,
    render_formulation,
    renderable_ids,
)
from symbiosis_kit.parser import parse


def build(src: str):
    model, diags = parse(src)
    assert not diags
    return model


_STAKEHOLDERS = (
    'stakeholder ceo { name: "CEO" }\n'
    'stakeholder ciso { name: "CISO" }\n'
    'stakeholder dba { name: "DBA" }\n'
)


def test_top_level_objective_template():
    model = build(
        _STAKEHOLDERS
        + "universe org { facets: a, b }\n"
        + 'objective BO1 { object: "perimeter" scope: org.* "org-wide" '
        + 'purpose: "harden" viewpoint: ceo context: "the deadline" }'
    )
    text = render_formulation(model, "BO1")
    assert text == (
        "One of our primary business objectives is to harden perimeter org-wide, "
        "from the viewpoint of the CEO, while taking into account the deadline."
    )


def test_refined_objective_uses_analyse_template():
    model = build(
        _STAKEHOLDERS
        + "universe org { facets: a }\n"
        + 'objective BO1 { object: "x" scope: org.* purpose: "p" viewpoint: ceo context: "c" }\n'
        + 'objective BO1.1 { refines: BO1 object: "controls" scope: org.* "things" '
        + 'purpose: "assessing" viewpoint: ciso context: "soon" }'
    )
    text = render_formulation(model, "BO1.1")
    assert text == (
        "Analyse the controls including all things for the purpose of assessing "
        "from the viewpoint of the CISO, soon."
    )


def test_dependency_clauses():
    model = build(
        _STAKEHOLDERS
        + "universe org { facets: a }\n"
        + 'objective BO1 { object: "x" scope: org.* "s" purpose: "p" viewpoint: ceo '
        + 'context: "c" depends_on: BO2 affects: BO3 }\n'
        + 'objective BO2 { object: "y" scope: org.* purpose: "p" viewpoint: ceo context: "c" }\n'
        + 'objective BO3 { object: "z" scope: org.* purpose: "p" viewpoint: ceo context: "c" }\n'
        + 'objective BO1.1 { refines: BO1 object: "w" scope: org.* purpose: "p" viewpoint: ciso '
        + 'context: "c" depends_on: BO2 affects: BO3 }'
    )
    text = render_formulation(model, "BO1")
    assert "This business objective depends on the achievement of BO2" in text
    assert "Achieving this business objective will affect BO3" in text
    refined = render_formulation(model, "BO1.1")
    assert refined.endswith(". This objective depends on BO2 This objective is expected to affect BO3")


def test_goal_template_with_criteria_and_related():
    model = build(
        _STAKEHOLDERS
        + 'objective BO1 { object: "x" purpose: "p" viewpoint: ceo context: "c" }\n'
        + 'goal MG1 { object: "training process" scope: "content" purpose: "evaluating" '
        + 'focus: "its effectiveness" criteria: "currentness", "frequency" '
        + 'viewpoint: ciso context: "risk" measures: BO1 related: MG2 }\n'
        + 'goal MG2 { object: "o" scope: "s" purpose: "p" focus: "f" criteria: "c" '
        + "viewpoint: ciso context: \"c\" measures: BO1 }"
    )
    text = render_formulation(model, "MG1")
    assert text == (
        "Analyse the training process and specifically the content, "
        "for the purpose of evaluating its effectiveness, "
        "with respect to currentness, frequency, "
        "from the viewpoint of the CISO taking into account risk. "
        "This measurement goal is expected to impact MG2"
    )


def test_three_viewpoints_join_with_and():
    model = build(
        _STAKEHOLDERS
        + 'objective BO1 { object: "x" scope: org.* purpose: "p" '
        + 'viewpoint: ceo, ciso, dba context: "c" }\n'
        + "universe org { facets: a }"
    )
    assert "the CEO, CISO and DBA," in render_formulation(model, "BO1")


def test_scope_falls_back_to_universe_then_selection():
    model = build(
        _STAKEHOLDERS
        + "universe org { facets: a, b, c }\n"
        + 'objective BO1 { object: "x" scope: org.* purpose: "p" viewpoint: ceo context: "c" }\n'
        + 'objective BO2 { object: "x" scope: org.{a, b} purpose: "p" viewpoint: ceo context: "c" }'
    )
    assert "all facets of org" in render_formulation(model, "BO1")
    assert "x a, b," in render_formulation(model, "BO2")


@pytest.mark.parametrize(
    "src, field",
    [
        ('objective BO1 { object: "x" scope: org.* "s" viewpoint: ceo context: "c" }', "purpose"),
        ('objective BO1 { object: "x" purpose: "p" viewpoint: ceo context: "c" }', "scope"),
        ('objective BO1 { object: "x" scope: org.* "s" purpose: "p" context: "c" }', "viewpoint"),
        ('objective BO1 { object: "x" scope: org.* "s" purpose: "p" viewpoint: ghost context: "c" }', "viewpoint"),
    ],
)
def test_missing_fields_raise(src, field):
    model = build(_STAKEHOLDERS + "universe org { facets: a }\n" + src)
    with pytest.raises(MissingFieldError) as exc:
        render_formulation(model, "BO1")
    assert exc.value.field == field


def test_goal_without_criteria_raises():
    model = build(
        _STAKEHOLDERS
        + 'goal MG1 { object: "o" scope: "s" purpose: "p" focus: "f" '
        + 'viewpoint: ciso context: "c" }'
    )
    with pytest.raises(MissingFieldError) as exc:
        render_formulation(model, "MG1")
    assert exc.value.field == "criteria"


def test_unknown_and_unrenderable_ids_raise_keyerror():
    model = build("metric M { }")
    with pytest.raises(KeyError):
        render_formulation(model, "NOPE")
    with pytest.raises(KeyError):
        render_formulation(model, "M")  # metrics have no formulation sentence


def test_renderable_ids_sorted_objectives_and_goals_only(jpmorgan):
    ids = renderable_ids(jpmorgan)
    assert ids == sorted(ids)
    assert "BO1" in ids and "MG1.1.1.1" in ids
    assert all(not i.startswith(("ME", "Q", "bm_")) for i in ids)

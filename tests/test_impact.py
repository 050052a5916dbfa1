"""Model diffs and change-impact classification."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelgen import program_model, random_model
from oracles import derived_from, diff_by_canonical, orphans_after_removal
from symbiosis_kit.graph import UnknownNode, build_graph
from symbiosis_kit.impact import (
    Change,
    ChangeKind,
    analyze,
    diff,
    impact,
    render_json,
    render_text,
)
from symbiosis_kit.model import COLLECTIONS, FIELDS, NODE_KINDS, NODE_TYPES
from symbiosis_kit.parser import parse

# Diamond: MGd keeps an independent path to a root when A is removed, MGo not.
DIAMOND = """
objective BO1 { depends_on: BO2 }
objective BO2 { }
objective A { refines: BO1 }
goal MGd { measures: A, BO2 }
goal MGo { measures: A }
question Qd { goal: MGd text: "?" }
question Qo { goal: MGo text: "?" }
metric Md { answers: Qd }
metric Mo { answers: Qo }
"""


def build(src: str):
    model, diags = parse(src)
    assert not diags
    return model


@pytest.fixture(scope="module")
def diamond():
    return build(DIAMOND)


# -- diff ----------------------------------------------------------------------


def test_diff_of_identical_models(diamond):
    assert diff(diamond, diamond) == []


def test_diff_kinds_and_ordering():
    old = build('objective BO1 { object: "before" }\nmetric M { }')
    new = build('objective BO1 { object: "after" }\nbase b { description: "d" }')
    changes = diff(old, new)
    assert [(c.kind, c.node_kind, c.node_id) for c in changes] == [
        (ChangeKind.ADDED, "base", "b"),
        (ChangeKind.REMOVED, "metric", "M"),
        (ChangeKind.MODIFIED, "objective", "BO1"),
    ]
    (field_change,) = changes[2].fields
    assert field_change.field == "object"
    assert (field_change.old, field_change.new) == ("before", "after")


# -- diff against the diff of hand-written canonical dicts ------------------------
# `oracles.diff_by_canonical` is the diff as it was before it compared frozen
# nodes first and read fields from the field table. `repr` tells 1 from 1.0.


def _assert_same_as_canonical_diff(old, new):
    changes = diff(old, new)
    assert repr(changes) == repr(diff_by_canonical(old, new))
    return changes


def _edit_one_field(rng, model, donor):
    """`model` with one field of one node set to its value in a node of the
    same kind in `donor`, or in a default node."""
    kind = rng.choice([k for k in NODE_KINDS if model.collection(k)])
    nodes = model.collection(kind)
    node_id = rng.choice(sorted(nodes))
    row = rng.choice(FIELDS[kind])
    pool = sorted(donor.collection(kind).values(), key=lambda n: n.id) + [NODE_TYPES[kind](id=node_id)]
    value = getattr(rng.choice(pool), row.attribute)
    node = nodes[node_id]._replace(**{row.attribute: value})
    return model._replace(**{COLLECTIONS[kind]: {**nodes, node_id: node}})


def test_diff_matches_the_canonical_diff_on_random_pairs():
    rng = random.Random(20190304)
    for _ in range(300):
        old, new = random_model(rng, max_nodes=20), random_model(rng, max_nodes=20)
        _assert_same_as_canonical_diff(old, new)
        assert _assert_same_as_canonical_diff(old, old) == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_diff_matches_the_canonical_diff_on_one_field_edits(seed):
    rng = random.Random(seed)
    old = random_model(rng, max_nodes=20)
    new = _edit_one_field(rng, old, random_model(rng, max_nodes=20))
    changes = _assert_same_as_canonical_diff(old, new)
    _assert_same_as_canonical_diff(new, old)
    assert len(changes) <= 1
    assert all(c.kind is ChangeKind.MODIFIED and len(c.fields) == 1 for c in changes)


def test_diff_matches_the_canonical_diff_on_a_511_objective_program():
    rng = random.Random(5)
    old = program_model(random.Random(1))
    new = old
    for _ in range(40):
        new = _edit_one_field(rng, new, program_model(random.Random(2)))
    assert _assert_same_as_canonical_diff(old, new)
    _assert_same_as_canonical_diff(new, old)


def test_nodes_that_differ_only_in_python_types_are_not_modified():
    old = build('objective BO1 { viewpoint: s affects: BO2 }\nobjective BO2 { }')
    bo1 = old.objectives["BO1"]
    listed = bo1._replace(viewpoint=["s"])
    new = old._replace(objectives={**old.objectives, "BO1": listed})
    assert listed != bo1
    assert _assert_same_as_canonical_diff(old, new) == []


# -- impact --------------------------------------------------------------------


def test_removal_splits_orphans_from_review(diamond):
    report = impact(build_graph(diamond), Change(ChangeKind.REMOVED, "objective", "A"))
    assert report.downstream_orphans == ("MGo", "Mo", "Qo")
    assert report.downstream_review == ("MGd", "Md", "Qd")
    assert report.upstream_review == ("BO1",)
    assert report.related == ()


def test_goal_removal_orphans_its_whole_subtree(diamond):
    report = impact(build_graph(diamond), Change(ChangeKind.REMOVED, "goal", "MGo"))
    assert report.downstream_orphans == ("Mo", "Qo")
    assert report.downstream_review == ()
    assert report.upstream_review == ("A", "BO1")  # objectives only


def test_modification_never_orphans(diamond):
    report = impact(build_graph(diamond), Change(ChangeKind.MODIFIED, "goal", "MGo"))
    assert report.downstream_orphans == ()
    assert report.downstream_review == ("Mo", "Qo")


def test_related_captures_dependency_neighbors(diamond):
    report = impact(build_graph(diamond), Change(ChangeKind.MODIFIED, "objective", "BO1"))
    assert report.related == ("BO2",)
    assert "BO2" not in report.downstream_review


@pytest.mark.parametrize("change_kind", [ChangeKind.MODIFIED, ChangeKind.REMOVED])
def test_base_change_reviews_the_metrics_that_use_it(jpmorgan, change_kind):
    report = impact(build_graph(jpmorgan), Change(change_kind, "base", "bm_took"))
    assert report.downstream_orphans == ()  # the metric keeps its derivation path
    assert report.downstream_review == ("ME1.1.1.1.1",)
    assert report.upstream_review == ("BO1", "BO1.1", "BO1.1.1")
    assert report.related == ()


def test_unknown_node_raises(diamond):
    with pytest.raises(UnknownNode):
        impact(build_graph(diamond), Change(ChangeKind.REMOVED, "objective", "NOPE"))


def test_impact_sets_are_always_disjoint(jpmorgan):
    graph = build_graph(jpmorgan)
    for node_id, kind in sorted(graph.nodes.items()):
        for change_kind in ChangeKind:
            report = impact(graph, Change(change_kind, kind, node_id))
            sets = [
                set(report.downstream_orphans),
                set(report.downstream_review),
                set(report.upstream_review),
                set(report.related),
            ]
            union: set[str] = set()
            for s in sets:
                assert not (union & s), f"{node_id} {change_kind}: overlapping sets"
                union |= s
            assert node_id not in union


# -- removals of many nodes ------------------------------------------------------


def _without(model, removed: set[str]):
    """`model` with every node whose id is in `removed` dropped."""
    return model._replace(
        **{
            COLLECTIONS[kind]: {i: n for i, n in model.collection(kind).items() if i not in removed}
            for kind in NODE_KINDS
        }
    )


def _subtree(model, top: str) -> set[str]:
    """`top`, its descendants, and the bases their metrics use."""
    removed = {top} | derived_from(model, top)
    return removed | {b for m_id in removed & model.metrics.keys() for b in model.metrics[m_id].uses}


def _blocks_in_file_order(model) -> list[str]:
    """A program_model's blocks as its generator writes them: each objective, then its leaf's blocks."""
    numbered = [node_id for node_id in model.kinds if re.search(r"\d", node_id)]
    rank = {kind: r for r, kind in enumerate(NODE_KINDS)}
    return sorted(numbered, key=lambda i: (int(re.search(r"\d+", i).group()), rank[model.kinds[i]], i))


def _share_parents(rng, model):
    """`model` with some goals measuring a second objective and some metrics answering a second question,
    so that removals leave descendants that keep a derivation path."""
    objectives, questions = sorted(model.objectives), sorted(model.questions)
    share = rng.random() / 2
    goals = {
        i: g._replace(measures=(*g.measures, rng.choice(objectives))) if rng.random() < share else g
        for i, g in model.goals.items()
    }
    metrics = {
        i: m._replace(answers=(*m.answers, rng.choice(questions))) if rng.random() < share else m
        for i, m in model.metrics.items()
    }
    return model._replace(goals=goals, metrics=metrics)


class _Counted(dict):
    """An adjacency table that counts the lookups made in it."""

    def __init__(self, table: dict, calls: list[int]) -> None:
        super().__init__(table)
        self.calls = calls

    def get(self, key, default=None):
        self.calls[0] += 1
        return super().get(key, default)


@pytest.mark.parametrize("objectives", [255, 1023])
def test_a_quarter_removal_costs_lookups_linear_in_nodes_plus_output(objectives):
    """Each removal walks only its own subtree, not the whole graph."""
    old = program_model(random.Random(objectives), objectives)
    new = _without(old, _subtree(old, "BO4"))
    calls = [0]
    graph = build_graph(old)
    graph.closure_up, graph.closure_down = _Counted(graph.closure_up, calls), _Counted(graph.closure_down, calls)
    removed = [c for c in diff(old, new) if c.kind is ChangeKind.REMOVED]
    assert len(removed) > objectives // 4
    entries = 0
    for change in removed:
        report = impact(graph, change)
        entries += sum(map(len, (report.downstream_orphans, report.downstream_review, report.upstream_review, report.related)))
    assert calls[0] <= 2 * (len(graph.nodes) + entries)


def _assert_removals_match_the_oracle(old, new) -> int:
    removals = 0
    for report in analyze(old, new):
        if report.change.kind is ChangeKind.REMOVED:
            node_id = report.change.node_id
            orphans = orphans_after_removal(old, node_id)
            assert set(report.downstream_orphans) == orphans, node_id
            assert set(report.downstream_review) == derived_from(old, node_id) - orphans, node_id
            removals += 1
    return removals


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([15, 31, 63]), st.booleans())
def test_removals_of_subtrees_and_include_files_match_the_oracle(seed, objectives, as_file):
    """A dropped subtree, or a contiguous run of blocks as one include file would hold."""
    rng = random.Random(seed)
    old = _share_parents(rng, program_model(rng, objectives))
    if as_file:
        blocks = _blocks_in_file_order(old)
        start = rng.randrange(len(blocks))
        removed = set(blocks[start : start + rng.randint(1, len(blocks) // 4)])
    else:
        removed = _subtree(old, rng.choice(_blocks_in_file_order(old)))
    assert _assert_removals_match_the_oracle(old, _without(old, removed)) == len(removed)


def test_removals_between_the_corpus_models_match_the_oracle(jpmorgan, anthem):
    assert _assert_removals_match_the_oracle(jpmorgan, anthem) > 0
    assert _assert_removals_match_the_oracle(anthem, jpmorgan) > 0


# -- analyze -------------------------------------------------------------------


def test_analyze_uses_new_model_for_additions(diamond):
    new = build(DIAMOND + "metric Mx { answers: Qd }")
    reports = analyze(diamond, new)
    assert len(reports) == 1
    report = reports[0]
    assert report.change.kind is ChangeKind.ADDED
    assert report.change.node_id == "Mx"
    assert report.downstream_orphans == ()
    assert report.upstream_review == ("A", "BO1", "BO2")


def test_analyze_reports_removals_against_the_old_model(diamond):
    new = build(DIAMOND.replace("metric Mo { answers: Qo }\n", ""))
    reports = analyze(diamond, new)
    assert [(r.change.kind, r.change.node_id) for r in reports] == [
        (ChangeKind.REMOVED, "Mo")
    ]


# -- rendering -------------------------------------------------------------------


def test_render_text(diamond):
    new = build(DIAMOND.replace('question Qo { goal: MGo text: "?" }', 'question Qo { goal: MGo text: "!" }'))
    text = render_text(analyze(diamond, new))
    assert "MODIFIED question Qo" in text
    assert '  text: "?" -> "!"' in text

    removal = render_text([impact(build_graph(diamond), Change(ChangeKind.REMOVED, "objective", "A"))])
    assert removal.startswith("REMOVED objective A\n")
    assert "  downstream orphans: MGo, Mo, Qo" in removal
    assert "  downstream review: MGd, Md, Qd" in removal
    assert "  upstream review: BO1" in removal


def test_render_text_no_changes():
    assert render_text([]) == "no changes\n"


def test_render_json_shape(diamond):
    payload = json.loads(
        render_json([impact(build_graph(diamond), Change(ChangeKind.REMOVED, "objective", "A"))])
    )
    (entry,) = payload["changes"]
    assert entry["change"] == {
        "change": "removed",
        "node_kind": "objective",
        "id": "A",
        "fields": [],
    }
    assert entry["downstream_orphans"] == ["MGo", "Mo", "Qo"]

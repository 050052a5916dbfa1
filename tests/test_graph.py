"""Traceability graph construction, closure queries, and exports."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS_ROOT
from modelgen import random_dag_model, random_model
from oracles import related_by_scan, root_objectives_by_scan, users_by_scan
from symbiosis_kit.graph import (
    EdgeKind,
    UnknownNode,
    ancestors,
    build_graph,
    descendants,
    objective_ancestors_ordered,
    reach,
    to_dot,
    to_json,
)
from symbiosis_kit.impact import Change, ChangeKind, impact
from symbiosis_kit.parser import parse, parse_file


def graph_of(src: str):
    model, diags = parse(src)
    assert not diags
    return build_graph(model)


def test_jpmorgan_metric_ancestors(jpmorgan):
    graph = build_graph(jpmorgan)
    up = ancestors(graph, "ME1.1.1.1.1")
    assert up == {"Q1.1.1.1.4", "MG1.1.1.1", "BO1.1.1", "BO1.1", "BO1"}
    # bases hang off USES edges, which are outside the derivation closure
    assert not any(n.startswith("bm_") for n in up)


def test_jpmorgan_objective_descendants(jpmorgan):
    graph = build_graph(jpmorgan)
    down = descendants(graph, "BO1.1.1")
    questions = {f"Q1.1.1.1.{i}" for i in range(1, 7)}
    metrics = {f"ME1.1.1.1.{i}" for i in range(1, 7)}
    assert down == {"MG1.1.1.1"} | questions | metrics


def test_objective_ancestors_ordered_nearest_first(jpmorgan):
    graph = build_graph(jpmorgan)
    assert objective_ancestors_ordered(graph, "ME1.1.1.1.1") == ["BO1.1.1", "BO1.1", "BO1"]
    assert objective_ancestors_ordered(graph, "BO1") == []


def test_depends_on_cycle_does_not_hang():
    graph = graph_of(
        "objective A { depends_on: B }\nobjective B { depends_on: A }"
    )
    assert ancestors(graph, "A") == set()  # DEPENDS_ON is outside the closure
    kinds = {e.kind for e in graph.edges}
    assert kinds == {EdgeKind.DEPENDS_ON}


def test_unvalidated_models_do_not_raise_or_hang():
    # build_graph trusts the validator; on models it would reject, every
    # closure query still terminates without raising
    for src in (
        "objective A { refines: B }\nobjective B { refines: A }",
        "objective BO1 { refines: GHOST }\ngoal MG1 { measures: BO1 }",
    ):
        model, _ = parse(src)
        graph = build_graph(model)
        for node_id in sorted(graph.nodes):
            ancestors(graph, node_id)
            descendants(graph, node_id)
            objective_ancestors_ordered(graph, node_id)
            impact(model, Change(ChangeKind.REMOVED, graph.nodes[node_id], node_id), graph)
    model, _ = parse("objective A { refines: B }\nobjective B { refines: A }")
    graph = build_graph(model)
    assert ancestors(graph, "A") == {"B"}
    assert objective_ancestors_ordered(graph, "B") == ["A"]


def test_each_field_with_an_edge_kind_makes_its_edges():
    graph = graph_of(
        "objective A { }\nobjective B { refines: A depends_on: A affects: A }\n"
        "strategy S { for: A }\ngoal G { measures: B related: G }\nquestion Q { goal: G }\n"
        'base b { description: "d" }\nmetric M { goal: G answers: Q uses: b }'
    )
    assert [(e.kind, e.src, e.dst) for e in graph.edges] == [
        (EdgeKind.AFFECTS, "B", "A"),
        (EdgeKind.ANSWERS, "M", "Q"),
        (EdgeKind.ASKS, "Q", "G"),
        (EdgeKind.DEPENDS_ON, "B", "A"),
        (EdgeKind.MEASURES, "G", "B"),
        (EdgeKind.REFINES, "B", "A"),
        (EdgeKind.STRATEGY_OF, "S", "A"),
        (EdgeKind.USES, "M", "b"),
    ]


def test_an_empty_for_or_goal_makes_no_edge():
    # the validator rejects both blocks (V010); the graph names no node ''
    assert graph_of("strategy S { }\nquestion Q { }").edges == ()


def test_reach_is_breadth_first_and_sorted():
    adjacency = {"s": ("b", "a"), "a": ("c", "s"), "b": ("c", "d"), "d": ("e",)}
    assert reach(adjacency, ["s"]) == ["b", "a", "c", "d", "e"]
    assert reach(adjacency, ["a", "d"]) == ["c", "s", "e", "b"]
    assert reach(adjacency, ["x"]) == []


def _chains(model) -> dict[str, list[str]]:
    graph = build_graph(model)
    chains = {n: objective_ancestors_ordered(graph, n) for n in sorted(graph.nodes)}
    return {n: chain for n, chain in chains.items() if chain}


def test_objective_ancestors_ordered_on_the_case_studies(jpmorgan, anthem):
    # the order is printed in every eval and report payload; pin it per node
    chain = ["BO1.1.1", "BO1.1", "BO1"]
    expected = {"BO1.1": ["BO1"], "BO1.1.1": ["BO1.1", "BO1"], "MG1.1.1.1": chain}
    expected.update({f"{kind}1.1.1.1.{i}": chain for kind in ("Q", "ME") for i in range(1, 7)})
    assert _chains(jpmorgan) == expected
    assert _chains(anthem) == {"ME2": ["BO2"], "MG2": ["BO2"], "Q2.1": ["BO2"]}


def test_unknown_node_raises(jpmorgan):
    graph = build_graph(jpmorgan)
    with pytest.raises(UnknownNode):
        ancestors(graph, "NOPE")
    with pytest.raises(UnknownNode):
        objective_ancestors_ordered(graph, "NOPE")


def test_edge_filters(jpmorgan):
    graph = build_graph(jpmorgan)
    uses = graph.edges_from("ME1.1.1.1.1", frozenset({EdgeKind.USES}))
    assert {e.dst for e in uses} == {"bm_completed", "bm_took"}
    asks = [e for e in graph.edges if e.dst == "MG1.1.1.1" and e.kind is EdgeKind.ASKS]
    assert len(asks) == 6


def test_to_dot_shape_and_determinism(jpmorgan):
    graph = build_graph(jpmorgan)
    dot = to_dot(graph)
    assert dot.startswith("digraph traceability {\n  rankdir=BT;")
    assert '"ME1.1.1.1.1" [shape=hexagon];' in dot
    assert '"Q1.1.1.1.1" -> "MG1.1.1.1" [label="asks"];' in dot
    assert dot == to_dot(build_graph(jpmorgan))


def test_to_json_is_sorted_and_parses(jpmorgan):
    payload = json.loads(to_json(build_graph(jpmorgan)))
    ids = [n["id"] for n in payload["nodes"]]
    assert ids == sorted(ids)
    keys = [(e["kind"], e["src"], e["dst"]) for e in payload["edges"]]
    assert keys == sorted(keys)
    assert {"kind": "answers", "src": "ME1.1.1.1.1", "dst": "Q1.1.1.1.4"} in payload["edges"]


# -- neighbour tables against scans of the model ----------------------------------
# `related` and `used_by` replace impact analysis's scans of the model, and a
# root objective is one with no closure edge up; `oracles` keeps the scans.


def _assert_tables_match_model_scans(model):
    graph = build_graph(model)
    for node_id in graph.nodes:
        assert set(graph.related.get(node_id, ())) == related_by_scan(model, node_id), node_id
        assert set(graph.used_by.get(node_id, ())) == users_by_scan(model, node_id), node_id
    for adjacency in (graph.related, graph.used_by):
        for neighbours in adjacency.values():
            assert list(neighbours) == sorted(set(neighbours))
    roots = {n for n, kind in graph.nodes.items() if kind == "objective" and n not in graph.closure_up}
    assert roots == root_objectives_by_scan(model)


@pytest.mark.parametrize("name", ["jpmorgan", "anthem", "heartland_broken", "heartland_fixed"])
def test_corpus_neighbour_tables_match_model_scans(name):
    model, diags = parse_file(CORPUS_ROOT / f"{name}.sym")
    assert not diags
    _assert_tables_match_model_scans(model)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_generated_neighbour_tables_match_model_scans(seed, dag):
    rng = random.Random(seed)
    model = random_dag_model(rng, max_nodes=20) if dag else random_model(rng, max_nodes=30)
    _assert_tables_match_model_scans(model)


def test_jpmorgan_base_users_are_kept_outside_the_closure(jpmorgan):
    graph = build_graph(jpmorgan)
    assert graph.used_by["bm_took"] == ("ME1.1.1.1.1",)
    assert graph.used_by["bm_completed"] == ("ME1.1.1.1.1",)
    assert "bm_took" not in graph.closure_up and "bm_took" not in graph.closure_down

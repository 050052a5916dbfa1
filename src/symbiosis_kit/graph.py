"""Traceability graph over model nodes, with closure queries and exports.

Edge kinds: REFINES (child objective -> parent), MEASURES (goal -> objective),
ASKS (question -> goal), ANSWERS (metric -> question), USES (metric -> base),
DEPENDS_ON / AFFECTS (objective -> objective), STRATEGY_OF (strategy -> objective).

ancestors/descendants close over REFINES, MEASURES, ASKS and ANSWERS only, so
cyclic DEPENDS_ON/AFFECTS links never cause non-termination.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .model import Model, NODE_KINDS


class EdgeKind(Enum):
    REFINES = "refines"
    MEASURES = "measures"
    ASKS = "asks"
    ANSWERS = "answers"
    USES = "uses"
    DEPENDS_ON = "depends_on"
    AFFECTS = "affects"
    STRATEGY_OF = "strategy_of"


# Edge kinds participating in the derivation closure (ancestors/descendants).
CLOSURE_KINDS = frozenset(
    {EdgeKind.REFINES, EdgeKind.MEASURES, EdgeKind.ASKS, EdgeKind.ANSWERS}
)


@dataclass(frozen=True, slots=True)
class Edge:
    kind: EdgeKind
    src: str
    dst: str


class GraphError(Exception):
    pass


class UnresolvedReference(GraphError):
    def __init__(self, ref: str, site: str) -> None:
        super().__init__(f"unresolved reference {ref!r} at {site}")
        self.ref = ref
        self.site = site


class RefinesCycleError(GraphError):
    def __init__(self, node_id: str) -> None:
        super().__init__(f"refines cycle through {node_id!r}")
        self.node_id = node_id


class UnknownNode(GraphError):
    def __init__(self, node_id: str) -> None:
        super().__init__(f"unknown node {node_id!r}")
        self.node_id = node_id


@dataclass(frozen=True)
class TraceabilityGraph:
    nodes: dict[str, str]  # id -> kind
    edges: tuple[Edge, ...]
    # closure edges (CLOSURE_KINDS) by node, neighbours sorted: src -> dsts and dst -> srcs
    closure_up: dict[str, tuple[str, ...]] = field(repr=False, compare=False)
    closure_down: dict[str, tuple[str, ...]] = field(repr=False, compare=False)

    def edges_from(self, node_id: str, kinds: frozenset[EdgeKind] | None = None) -> list[Edge]:
        return [
            e
            for e in self.edges
            if e.src == node_id and (kinds is None or e.kind in kinds)
        ]

    def edges_to(self, node_id: str, kinds: frozenset[EdgeKind] | None = None) -> list[Edge]:
        return [
            e
            for e in self.edges
            if e.dst == node_id and (kinds is None or e.kind in kinds)
        ]


def _require(graph_nodes: dict[str, str], ref: str, site: str) -> None:
    if ref not in graph_nodes:
        raise UnresolvedReference(ref, site)


def build_graph(model: Model) -> TraceabilityGraph:
    """Build the graph. Raises UnresolvedReference / RefinesCycleError / GraphError.

    Precondition: the model passed validation with zero errors; the checks here
    are a defensive re-statement, not a replacement for the validator.
    """
    nodes: dict[str, str] = {}
    for kind in NODE_KINDS:
        for node_id in model.collection(kind):
            if node_id in nodes:
                raise GraphError(f"duplicate node id {node_id!r}")
            nodes[node_id] = kind

    edges: list[Edge] = []

    for bo_id, bo in sorted(model.objectives.items()):
        if bo.refines is not None:
            _require(nodes, bo.refines, f"{bo_id}.refines")
            edges.append(Edge(EdgeKind.REFINES, bo_id, bo.refines))
        for dep in bo.depends_on:
            _require(nodes, dep, f"{bo_id}.depends_on")
            edges.append(Edge(EdgeKind.DEPENDS_ON, bo_id, dep))
        for aff in bo.affects:
            _require(nodes, aff, f"{bo_id}.affects")
            edges.append(Edge(EdgeKind.AFFECTS, bo_id, aff))

    for st_id, st in sorted(model.strategies.items()):
        _require(nodes, st.for_objective, f"{st_id}.for")
        edges.append(Edge(EdgeKind.STRATEGY_OF, st_id, st.for_objective))

    for mg_id, mg in sorted(model.goals.items()):
        for bo_id in mg.measures:
            _require(nodes, bo_id, f"{mg_id}.measures")
            edges.append(Edge(EdgeKind.MEASURES, mg_id, bo_id))

    for q_id, q in sorted(model.questions.items()):
        _require(nodes, q.goal, f"{q_id}.goal")
        edges.append(Edge(EdgeKind.ASKS, q_id, q.goal))

    for m_id, metric in sorted(model.metrics.items()):
        for q_id in metric.answers:
            _require(nodes, q_id, f"{m_id}.answers")
            edges.append(Edge(EdgeKind.ANSWERS, m_id, q_id))
        for b_id in metric.uses:
            _require(nodes, b_id, f"{m_id}.uses")
            edges.append(Edge(EdgeKind.USES, m_id, b_id))

    _check_refines_forest(model)

    ordered = tuple(sorted(edges, key=lambda e: (e.kind.value, e.src, e.dst)))
    up: dict[str, list[str]] = {}
    down: dict[str, list[str]] = {}
    for edge in ordered:
        if edge.kind in CLOSURE_KINDS:
            up.setdefault(edge.src, []).append(edge.dst)
            down.setdefault(edge.dst, []).append(edge.src)
    return TraceabilityGraph(
        nodes=nodes,
        edges=ordered,
        closure_up={node: tuple(sorted(dsts)) for node, dsts in up.items()},
        closure_down={node: tuple(sorted(srcs)) for node, srcs in down.items()},
    )


def _check_refines_forest(model: Model) -> None:
    # Single `refines` field rules out multiple parents; only cycles can occur.
    state: dict[str, int] = {}  # 0 in progress, 1 done
    for start in model.objectives:
        node = start
        trail = []
        while node is not None and node in model.objectives:
            if state.get(node) == 1:
                break
            if state.get(node) == 0:
                raise RefinesCycleError(node)
            state[node] = 0
            trail.append(node)
            node = model.objectives[node].refines
        for seen in trail:
            state[seen] = 1


def _closure(graph: TraceabilityGraph, start: str, forward: bool) -> set[str]:
    if start not in graph.nodes:
        raise UnknownNode(start)
    adjacency = graph.closure_up if forward else graph.closure_down
    seen: set[str] = set()
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for nxt in adjacency.get(current, ()):
            if nxt not in seen and nxt != start:
                seen.add(nxt)
                queue.append(nxt)
    seen.discard(start)
    return seen


def ancestors(graph: TraceabilityGraph, node_id: str) -> set[str]:
    """Nodes reachable toward coarser granularity (metric -> ... -> root objective)."""
    return _closure(graph, node_id, forward=True)


def descendants(graph: TraceabilityGraph, node_id: str) -> set[str]:
    """Nodes derived from node_id (reversed closure edges)."""
    return _closure(graph, node_id, forward=False)


def objective_ancestors_ordered(graph: TraceabilityGraph, node_id: str) -> list[str]:
    """Business-objective ancestors in derivation order, nearest first.

    Breadth-first over closure edges; successors visited in sorted order so the
    result is deterministic when derivation paths branch.
    """
    if node_id not in graph.nodes:
        raise UnknownNode(node_id)
    ordered: list[str] = []
    seen = {node_id}
    queue = deque([node_id])
    while queue:
        current = queue.popleft()
        for nxt in graph.closure_up.get(current, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            if graph.nodes.get(nxt) == "objective":
                ordered.append(nxt)
            queue.append(nxt)
    return ordered


_DOT_SHAPES = {
    "stakeholder": "plaintext",
    "universe": "folder",
    "objective": "box",
    "strategy": "note",
    "goal": "ellipse",
    "question": "diamond",
    "base": "cylinder",
    "metric": "hexagon",
}


def to_dot(graph: TraceabilityGraph) -> str:
    lines = ["digraph traceability {", "  rankdir=BT;"]
    for node_id in sorted(graph.nodes):
        shape = _DOT_SHAPES[graph.nodes[node_id]]
        lines.append(f'  "{node_id}" [shape={shape}];')
    for edge in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind.value)):
        lines.append(f'  "{edge.src}" -> "{edge.dst}" [label="{edge.kind.value}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: TraceabilityGraph) -> str:
    payload = {
        "nodes": [
            {"id": node_id, "kind": graph.nodes[node_id]}
            for node_id in sorted(graph.nodes)
        ],
        "edges": [
            {"kind": e.kind.value, "src": e.src, "dst": e.dst}
            for e in sorted(graph.edges, key=lambda e: (e.kind.value, e.src, e.dst))
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

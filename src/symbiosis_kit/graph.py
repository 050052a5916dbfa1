"""Traceability graph over model nodes, with closure queries and exports.

The edges come from the field table `model.FIELDS`: a row with an `edge`
gives the EdgeKind of the edge from a node to each id the field names (a
child objective REFINES its parent, a question ASKS its goal, a strategy is
STRATEGY_OF its objective).

build_graph expects a model that passed validation with zero errors and
does not check it again. One pass over the edges stores sorted neighbour
tuples: the closure edges (REFINES, MEASURES, ASKS, ANSWERS) in both
directions, each node's DEPENDS_ON/AFFECTS neighbours either way, and the
metrics that use each base, so impact analysis never scans the model.
Every closure query (ancestors, descendants, objective_ancestors_ordered,
and the walk inside a removed subtree that finds impact analysis's
orphans) is one breadth-first `reach` over that adjacency, so a query costs
time linear in the edges it reaches, and cyclic DEPENDS_ON/AFFECTS links,
which are outside the closure, never cause non-termination.
"""

from collections import defaultdict, deque
from collections.abc import Iterable
from enum import Enum
from typing import NamedTuple

from .model import FIELDS, REFERENCED, Model


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


_RELATED_KINDS = frozenset({EdgeKind.DEPENDS_ON, EdgeKind.AFFECTS})  # impact's `related`


# Each node kind's edge rows of the field table: (attribute, the ids its
# value names, the kind of edge to each of them).
_EDGE_ROWS = {
    kind: rows
    for kind, fields in FIELDS.items()
    if (rows := tuple((f.attribute, REFERENCED[f.value_kind], EdgeKind(f.edge)) for f in fields if f.edge))
}


class Edge(NamedTuple):
    kind: EdgeKind
    src: str
    dst: str


class UnknownNode(LookupError):
    def __init__(self, node_id: str) -> None:
        super().__init__(f"unknown node {node_id!r}")
        self.node_id = node_id


class TraceabilityGraph(NamedTuple):
    nodes: dict[str, str]  # id -> kind
    edges: tuple[Edge, ...]
    # closure edges (CLOSURE_KINDS) by node, neighbours sorted: src -> dsts and dst -> srcs
    closure_up: dict[str, tuple[str, ...]]
    closure_down: dict[str, tuple[str, ...]]
    # DEPENDS_ON/AFFECTS neighbours in either direction, never the node itself
    related: dict[str, tuple[str, ...]]
    # base -> the metrics that use it (USES edges reversed)
    used_by: dict[str, tuple[str, ...]]

    def edges_from(self, node_id: str, kinds: frozenset[EdgeKind] | None = None) -> list[Edge]:
        return [
            e
            for e in self.edges
            if e.src == node_id and (kinds is None or e.kind in kinds)
        ]


def build_graph(model: Model) -> TraceabilityGraph:
    """Build the graph of a model that passed validation with zero errors.

    The validator owns every check on the model (V001 unique ids, V002
    resolved references, V003 acyclic refines); this function repeats none
    of them. On an unvalidated model it still returns: a dangling reference
    becomes an edge to an id that is not a node, an empty one (a `for` or
    `goal` left unset) makes no edge, and a refines cycle is a cycle the
    walk below never re-enters.
    """
    edges = [
        Edge(edge_kind, src, dst)
        for kind, rows in _EDGE_ROWS.items()
        for src, node in model.collection(kind).items()
        for attribute, named, edge_kind in rows
        if (value := getattr(node, attribute))
        for dst in named(value)
    ]
    up, down, related, used_by = (defaultdict(set) for _ in range(4))
    for edge in edges:
        src, dst = edge.src, edge.dst
        if edge.kind in CLOSURE_KINDS:
            up[src].add(dst)
            down[dst].add(src)
        elif edge.kind is EdgeKind.USES:
            used_by[dst].add(src)
        elif edge.kind in _RELATED_KINDS and src != dst:
            related[src].add(dst)
            related[dst].add(src)
    ordered = tuple(sorted(edges, key=lambda e: (e.kind.value, e.src, e.dst)))
    adjacency = ({n: tuple(sorted(ns)) for n, ns in table.items()} for table in (up, down, related, used_by))
    return TraceabilityGraph(model.kinds, ordered, *adjacency)


def reach(adjacency: dict[str, tuple[str, ...]], starts: Iterable[str]) -> list[str]:
    """Nodes reachable from `starts`, in breadth-first order.

    Neighbours are visited in the order the adjacency lists them (sorted,
    as build_graph stores them). The starts themselves are not listed. Each
    node and edge reached is visited once, so a cycle ends the walk instead
    of looping.
    """
    queue = deque(starts)
    seen = set(queue)
    found: list[str] = []
    while queue:
        for nxt in adjacency.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                found.append(nxt)
                queue.append(nxt)
    return found


def _known(graph: TraceabilityGraph, node_id: str) -> str:
    if node_id not in graph.nodes:
        raise UnknownNode(node_id)
    return node_id


def ancestors(graph: TraceabilityGraph, node_id: str) -> set[str]:
    """Nodes reachable toward coarser granularity (metric -> ... -> root objective)."""
    return set(reach(graph.closure_up, [_known(graph, node_id)]))


def descendants(graph: TraceabilityGraph, node_id: str) -> set[str]:
    """Nodes derived from node_id (reversed closure edges)."""
    return set(reach(graph.closure_down, [_known(graph, node_id)]))


def objective_ancestors_ordered(graph: TraceabilityGraph, node_id: str) -> list[str]:
    """Business-objective ancestors in derivation order, nearest first.

    Breadth-first over closure edges; successors visited in sorted order so the
    result is deterministic when derivation paths branch.
    """
    up = reach(graph.closure_up, [_known(graph, node_id)])
    return [n for n in up if graph.nodes.get(n) == "objective"]


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
    from .payload import dumps

    payload = {
        "nodes": [
            {"id": node_id, "kind": graph.nodes[node_id]}
            for node_id in sorted(graph.nodes)
        ],
        # build_graph stores the edges sorted by (kind, src, dst)
        "edges": [{"kind": e.kind.value, "src": e.src, "dst": e.dst} for e in graph.edges],
    }
    return dumps(payload)

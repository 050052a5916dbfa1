"""Traceability graph over model nodes, with closure queries and exports.

The edges come from the field table `model.FIELDS`: a row with an `edge`
gives the EdgeKind of the edge from a node to each id the field names (a
child objective REFINES its parent, a question ASKS its goal, a strategy is
STRATEGY_OF its objective).

build_graph expects a model that passed validation with zero errors,
does not check it again, and returns at once. Each table of the graph is
built from the edge rows it needs the first time it is read, then kept on
that graph object: the closure edges (REFINES, MEASURES, ASKS, ANSWERS) as
sorted neighbour tuples up (`closure_up`) and down (`closure_down`), each
node's DEPENDS_ON/AFFECTS neighbours either way (`related`), the metrics
that use each base (`used_by`), and every edge, sorted (`edges`). `eval`
and `report` read only `closure_up`; `impact` reads the four neighbour
tables, so it never scans the model and never sorts the edges; `graph`
reads `edges`.
Every closure query (ancestors, descendants, objective_ancestors_ordered,
and the walk inside a removed subtree that finds impact analysis's
orphans) is one breadth-first `reach` over that adjacency, so a query costs
time linear in the edges it reaches, and cyclic DEPENDS_ON/AFFECTS links,
which are outside the closure, never cause non-termination.
"""

from collections import defaultdict, deque
from collections.abc import Collection, Iterable
from enum import Enum
from functools import cached_property
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


# The edge rows of the field table by edge kind: (node kind, attribute, the
# ids its value names).
_EDGE_ROWS = {
    edge_kind: [
        (kind, f.attribute, REFERENCED[f.value_kind])
        for kind, fields in FIELDS.items()
        for f in fields
        if f.edge == edge_kind.value
    ]
    for edge_kind in EdgeKind
}


class Edge(NamedTuple):
    kind: EdgeKind
    src: str
    dst: str


class UnknownNode(LookupError):
    def __init__(self, node_id: str) -> None:
        super().__init__(f"unknown node {node_id!r}")
        self.node_id = node_id


def _links(model: Model, kinds: Collection[EdgeKind]) -> list[tuple[str, str]]:
    """(src, dst) of each edge of `kinds`, one per id a field names, repeats
    kept, in the same order on every run."""
    return [
        (src, dst)
        for edge_kind, rows in _EDGE_ROWS.items()
        if edge_kind in kinds
        for kind, attribute, named in rows
        for src, node in model.collection(kind).items()
        if (value := getattr(node, attribute))
        for dst in named(value)
    ]


def _table(links: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
    """src -> its distinct dsts, sorted."""
    table = defaultdict(set)
    for src, dst in links:
        table[src].add(dst)
    return {src: tuple(sorted(dsts)) for src, dsts in table.items()}


class TraceabilityGraph:
    """The graph of one model: its nodes, and each table built from the
    model's edge rows the first time it is read, then kept."""

    def __init__(self, model: Model) -> None:
        self._model = model
        self.nodes: dict[str, str] = model.kinds  # id -> kind

    @cached_property
    def closure_up(self) -> dict[str, tuple[str, ...]]:
        """Closure edges (CLOSURE_KINDS) by node: src -> dsts, sorted."""
        return _table(_links(self._model, CLOSURE_KINDS))

    @cached_property
    def closure_down(self) -> dict[str, tuple[str, ...]]:
        """Closure edges reversed: dst -> srcs, sorted."""
        return _table((dst, src) for src, dsts in self.closure_up.items() for dst in dsts)

    @cached_property
    def related(self) -> dict[str, tuple[str, ...]]:
        """DEPENDS_ON/AFFECTS neighbours in either direction, never the node itself."""
        links = [link for link in _links(self._model, _RELATED_KINDS) if link[0] != link[1]]
        return _table([*links, *((dst, src) for src, dst in links)])

    @cached_property
    def used_by(self) -> dict[str, tuple[str, ...]]:
        """Base -> the metrics that use it (USES edges reversed)."""
        return _table((dst, src) for src, dst in _links(self._model, (EdgeKind.USES,)))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, one per id a field names, sorted by (kind, src, dst)."""
        edges = (Edge(kind, src, dst) for kind in EdgeKind for src, dst in _links(self._model, (kind,)))
        return tuple(sorted(edges, key=lambda e: (e.kind.value, e.src, e.dst)))

    def edges_from(self, node_id: str, kinds: frozenset[EdgeKind] | None = None) -> list[Edge]:
        return [
            e
            for e in self.edges
            if e.src == node_id and (kinds is None or e.kind in kinds)
        ]


def build_graph(model: Model) -> TraceabilityGraph:
    """The graph of a model that passed validation with zero errors.

    It returns at once: each table is built on its first read. The
    validator owns every check on the model (V001 unique ids, V002
    resolved references, V003 acyclic refines); this function repeats none
    of them. On an unvalidated model it still returns, and so does every
    table: a dangling reference becomes an edge to an id that is not a node,
    an empty one (a `for` or `goal` left unset) makes no edge, and a refines
    cycle is a cycle the walks below never re-enter.
    """
    return TraceabilityGraph(model)


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

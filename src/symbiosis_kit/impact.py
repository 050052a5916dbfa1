"""Structural diffs between model versions and change-impact sets.

Every impact set is read from the traceability graph of the version a
change applies to. A node's descendants over the closure (refines /
measures / asks / answers edges) need review and its objective ancestors
are upstream. A base is outside the closure, so a base change puts the
metrics that use it under review and their objective ancestors upstream.
`related` lists the node's depends_on/affects neighbours. For a removal,
the orphans are the removed node's descendants that no surviving top-level
objective reaches once the removed node is gone. `impact` runs only on a
model without errors, whose closure is acyclic (V003) and where every
closure node but a top-level objective has a parent (V010, V002). So a
descendant keeps a derivation path exactly when some descendant with a
parent outside the removed subtree reaches it: the first node of the
subtree on any path down from a surviving objective has such a parent. One
walk down from those nodes, inside the subtree, finds every descendant that
merely needs review; the rest are orphans. A removal costs time in its own
subtree, not in the whole graph.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .graph import TraceabilityGraph, ancestors, build_graph, descendants, reach
from .model import KIND_OBJECTIVE, NODE_KINDS, Model, node_json


class ChangeKind(Enum):
    ADDED = "added"
    REMOVED = "removed"
    MODIFIED = "modified"


class FieldChange(NamedTuple):
    field: str
    old: object
    new: object

    def to_json_obj(self) -> dict:
        return {"field": self.field, "old": self.old, "new": self.new}


class Change(NamedTuple):
    kind: ChangeKind
    node_kind: str
    node_id: str
    fields: tuple[FieldChange, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "change": self.kind.value,
            "node_kind": self.node_kind,
            "id": self.node_id,
            "fields": [f.to_json_obj() for f in self.fields],
        }


def diff(old: Model, new: Model) -> list[Change]:
    """Node-level diff keyed by (kind, id); field diffs on the nodes' JSON forms.

    Only a pair of nodes that differ is put into JSON form, and it is
    MODIFIED only if some field of that form differs.
    """
    changes: list[Change] = []
    for kind in NODE_KINDS:
        old_nodes = old.collection(kind)
        new_nodes = new.collection(kind)
        for node_id in sorted(old_nodes.keys() | new_nodes.keys()):
            if node_id not in new_nodes:
                changes.append(Change(ChangeKind.REMOVED, kind, node_id))
            elif node_id not in old_nodes:
                changes.append(Change(ChangeKind.ADDED, kind, node_id))
            elif old_nodes[node_id] != new_nodes[node_id]:
                before = node_json(kind, old_nodes[node_id])
                after = node_json(kind, new_nodes[node_id])
                fields = tuple(
                    FieldChange(key, before[key], after[key])
                    for key in sorted(before)
                    if before[key] != after[key]
                )
                if fields:
                    changes.append(Change(ChangeKind.MODIFIED, kind, node_id, fields))
    changes.sort(key=lambda c: (c.node_kind, c.node_id))
    return changes


class ImpactReport(NamedTuple):
    change: Change
    downstream_orphans: tuple[str, ...]
    downstream_review: tuple[str, ...]
    upstream_review: tuple[str, ...]
    related: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "change": self.change.to_json_obj(),
            "downstream_orphans": list(self.downstream_orphans),
            "downstream_review": list(self.downstream_review),
            "upstream_review": list(self.upstream_review),
            "related": list(self.related),
        }


def impact(graph: TraceabilityGraph, change: Change) -> ImpactReport:
    """Impact of one change, read from the graph of the model version it applies to.

    REMOVED and MODIFIED apply to the old model; ADDED to the new one.
    """
    node_id = change.node_id

    down = descendants(graph, node_id)
    up = ancestors(graph, node_id)
    users = graph.used_by.get(node_id, ())  # metrics are leaves of the closure
    down.update(users)
    up.update(reach(graph.closure_up, users))

    orphans: set[str] = set()
    if change.kind is ChangeKind.REMOVED:
        inside = down | {node_id}
        kept = {n for n in down if not inside.issuperset(graph.closure_up.get(n, ()))}
        orphans = down - kept - set(reach(graph.closure_down, kept))

    review = down - orphans
    upstream = {n for n in up if graph.nodes.get(n) == KIND_OBJECTIVE}
    upstream -= orphans | review
    related = set(graph.related.get(node_id, ())) - (orphans | review | upstream)
    return ImpactReport(
        change=change,
        downstream_orphans=tuple(sorted(orphans)),
        downstream_review=tuple(sorted(review)),
        upstream_review=tuple(sorted(upstream)),
        related=tuple(sorted(related)),
    )


def analyze(old: Model, new: Model) -> list[ImpactReport]:
    """Diff two versions and compute the impact of every change."""
    old_graph = build_graph(old)
    new_graph = build_graph(new)
    return [
        impact(new_graph if change.kind is ChangeKind.ADDED else old_graph, change)
        for change in diff(old, new)
    ]


def _fmt_value(value: object) -> str:
    import json

    return json.dumps(value, sort_keys=True)


def render_text(reports: list[ImpactReport]) -> str:
    if not reports:
        return "no changes\n"
    out: list[str] = []
    for report in reports:
        change = report.change
        out.append(f"{change.kind.value.upper()} {change.node_kind} {change.node_id}")
        for fc in change.fields:
            out.append(f"  {fc.field}: {_fmt_value(fc.old)} -> {_fmt_value(fc.new)}")
        for label, ids in (
            ("downstream orphans", report.downstream_orphans),
            ("downstream review", report.downstream_review),
            ("upstream review", report.upstream_review),
            ("related", report.related),
        ):
            if ids:
                out.append(f"  {label}: {', '.join(ids)}")
        out.append("")
    return "\n".join(out)


def render_json(reports: list[ImpactReport]) -> str:
    from .payload import dumps

    return dumps({"changes": [r.to_json_obj() for r in reports]})

"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (plain datetime
arithmetic, exhaustive sweeps, fresh BFS over edges rebuilt from node fields,
a character-at-a-time tokenizer, a parser that reads one token per method
call, a diff of hand-written canonical dicts, an ingest that decodes every
log line in full, a line classifier that matches the whole line with one
pattern, a validator that names every field by hand, a band
partition that compares endpoints one rule at a time, a string quoted by
one translate table, a traceability graph whose tables are all built in one
call) so a bug in the package cannot hide in its own
oracle.
"""

from __future__ import annotations

import calendar
import datetime as dt
import json
import math
import os
import re
from collections import Counter, defaultdict
from functools import cache
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple

from symbiosis_kit.diagnostics import Diagnostic, Severity, SourceSpan, sort_key
from symbiosis_kit import expr as _expr
from symbiosis_kit.lexer import Source, Token, TokenKind, Tokens, parse_number, tokenize
from symbiosis_kit.model import (
    FIELDS,
    KIND_BASE,
    KIND_GOAL,
    KIND_METRIC,
    KIND_OBJECTIVE,
    KIND_QUESTION,
    KIND_STAKEHOLDER,
    KIND_STRATEGY,
    KIND_UNIVERSE,
    NODE_KINDS,
    NODE_TYPES,
    Action,
    ActionKind,
    ActionTarget,
    Aggregation,
    BaseMeasurementDef,
    BusinessObjective,
    Granularity,
    InterpretationBand,
    Interval,
    MeasurementGoal,
    MeasurementQuestion,
    MetricDef,
    Model,
    QuestionStatus,
    REFERENCED,
    ReportingSchedule,
    ScopeRef,
    ScopeUniverse,
    SourceMode,
    Stakeholder,
    Strategy,
    StrategyStep,
)
from symbiosis_kit.graph import CLOSURE_KINDS, Edge, EdgeKind
from symbiosis_kit.impact import Change, ChangeKind, FieldChange
from symbiosis_kit.parser import _Builder
from symbiosis_kit.periods import PeriodError
from symbiosis_kit.pipeline import (
    _DIRECT,
    _EVENT,
    DirectEntry,
    _date_or_none,
    _decode_line,
    _decoded_field_set,
    _json_number,
    evaluate_period,
)

# -- band coverage sweep --------------------------------------------------------
# Works in integer micro-units (1 unit == 1e-6 of the metric's value scale) so
# every sweep point is examined exactly, with no float round-off.


def sweep_band_defects(
    bands_u: list[tuple[int, int, bool, bool]],
    domain_lo_u: int,
    domain_hi_u: int,
) -> tuple[bool, bool]:
    """(has uncovered point, has doubly covered point) over a closed domain.

    `bands_u` holds (lo, hi, lo_closed, hi_closed) in micro-units. Coverage is
    counted at every single micro-unit point of the domain; the difference
    array plus prefix sum is just a fast way of writing that exhaustive sweep.
    """
    n = domain_hi_u - domain_lo_u
    diff = [0] * (n + 2)
    for lo, hi, lo_closed, hi_closed in bands_u:
        start = max(lo if lo_closed else lo + 1, domain_lo_u)
        end = min(hi if hi_closed else hi - 1, domain_hi_u)
        if start > end:
            continue
        diff[start - domain_lo_u] += 1
        diff[end - domain_lo_u + 1] -= 1
    coverage = list(accumulate(diff[: n + 1]))
    return any(c == 0 for c in coverage), any(c > 1 for c in coverage)


# -- band partition, endpoint by endpoint ---------------------------------------
# V008's overlap and gap walk as the package had it before intervals compared
# cuts: every endpoint rule is written out by hand, the gap walk keeps a
# frontier whose flag is the opposite of a cut's, and each gap is checked for
# emptiness. `Interval.is_empty` and `Interval.intersect` are copied as
# functions, so a fault in the package's versions cannot hide here, and so is
# `Interval.contains`, the points that tests/test_records.py checks them on.


def contains_as_written(iv: Interval, x: float) -> bool:
    """`Interval.contains` as the package had it before it compared cuts."""
    if not iv.lo <= x <= iv.hi:
        return False
    if x == iv.lo and not iv.lo_closed:
        return False
    if x == iv.hi and not iv.hi_closed:
        return False
    return True


def _is_empty_as_written(iv: Interval) -> bool:
    if iv.lo > iv.hi:
        return True
    return iv.lo == iv.hi and not (iv.lo_closed and iv.hi_closed)


def _intersect_as_written(a: Interval, other: Interval) -> Interval:
    if a.lo > other.lo or (a.lo == other.lo and not a.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed
    else:
        lo, lo_closed = other.lo, other.lo_closed
    if a.hi < other.hi or (a.hi == other.hi and not a.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed
    else:
        hi, hi_closed = other.hi, other.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


def band_partition_problems_by_frontier(metric: MetricDef) -> list[str]:
    """Describe every overlap and gap of the metric's bands over its domain.

    Empty list == the bands exactly partition the effective domain. Band mass
    outside the domain is ignored (classification rejects such values upfront).
    """
    domain = metric.effective_domain()
    clipped: list[tuple[str, Interval]] = []
    for band in metric.bands:
        part = _intersect_as_written(band.interval, domain)
        if not _is_empty_as_written(part):
            clipped.append((band.label, part))

    problems: list[str] = []
    for i in range(len(clipped)):
        for j in range(i + 1, len(clipped)):
            overlap = _intersect_as_written(clipped[i][1], clipped[j][1])
            if not _is_empty_as_written(overlap):
                problems.append(
                    f"bands {clipped[i][0]!r} and {clipped[j][0]!r} overlap on {overlap.notation()}"
                )

    # Gap walk. Frontier (value, inclusive): everything before `value` is
    # covered; `inclusive` means the point `value` itself still needs covering.
    def behind(a: tuple[float, bool], b: tuple[float, bool]) -> bool:
        return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])

    frontier: tuple[float, bool] = (domain.lo, domain.lo_closed)
    for _, part in sorted(clipped, key=lambda c: (c[1].lo, not c[1].lo_closed)):
        starts_in_time = part.lo < frontier[0] or (
            part.lo == frontier[0] and (part.lo_closed or not frontier[1])
        )
        if not starts_in_time:
            gap = Interval(frontier[0], part.lo, frontier[1], not part.lo_closed)
            if not _is_empty_as_written(gap):
                problems.append(f"gap {gap.notation()} is not covered by any band")
            frontier = (part.lo, not part.lo_closed)
        candidate = (part.hi, not part.hi_closed)
        if behind(frontier, candidate):
            frontier = candidate
    end_uncovered = frontier[0] < domain.hi or (
        frontier[0] == domain.hi and frontier[1] and domain.hi_closed
    )
    if end_uncovered:
        gap = Interval(frontier[0], domain.hi, frontier[1], domain.hi_closed)
        if not _is_empty_as_written(gap):
            problems.append(f"gap {gap.notation()} is not covered by any band")
    return problems


# -- log records, one per accepted line -------------------------------------------


class RawEvent(NamedTuple):
    """One raw log event, as the package kept it before it tallied events."""

    timestamp: dt.date
    fields: tuple[tuple[str, str], ...]
    line: int


MeasurementRecord = DirectEntry | RawEvent


class DecodedLog(NamedTuple):
    """Accepted records in ingest order, one per line, and diagnostics."""

    records: tuple[MeasurementRecord, ...]
    diagnostics: tuple[Diagnostic, ...]


def event_tally(records: tuple[MeasurementRecord, ...]) -> dict[tuple, dict[dt.date, int]]:
    """Raw events counted per date under each set of fields, as the package keeps them."""
    tally: defaultdict[tuple, Counter] = defaultdict(Counter)
    for record in records:
        if isinstance(record, RawEvent):
            tally[record.fields][record.timestamp] += 1
    return {fields: dict(days) for fields, days in tally.items()}


def direct_entries(records: tuple[MeasurementRecord, ...]) -> list[DirectEntry]:
    return [r for r in records if isinstance(r, DirectEntry)]


# -- period bounds and counting -------------------------------------------------


def period_bounds(key: str) -> tuple[dt.date, dt.date]:
    """First and last day of a period key, from plain calendar arithmetic.

    The last ISO week of 9999 runs past date.max; it ends at date.max here.
    """
    if key.count("-") == 2:
        day = dt.date.fromisoformat(key)
        return day, day
    if "-W" in key:
        year, week = key.split("-W")
        first = dt.date.fromisocalendar(int(year), int(week), 1)
        return first, first + min(dt.timedelta(days=6), dt.date.max - first)
    if "-Q" in key:
        year, quarter = key.split("-Q")
        month = (int(quarter) - 1) * 3 + 1
        last_month = month + 2
        last_day = calendar.monthrange(int(year), last_month)[1]
        return dt.date(int(year), month, 1), dt.date(int(year), last_month, last_day)
    if "-" in key:
        year, month = key.split("-")
        last_day = calendar.monthrange(int(year), int(month))[1]
        return dt.date(int(year), int(month), 1), dt.date(int(year), int(month), last_day)
    year_n = int(key)
    return dt.date(year_n, 1, 1), dt.date(year_n, 12, 31)


def brute_force_count(
    records: tuple[MeasurementRecord, ...],
    filters: tuple[tuple[str, str], ...],
    period_key: str,
) -> float:
    """Re-count raw events one by one against filters and period bounds."""
    lo, hi = period_bounds(period_key)
    count = 0
    for record in records:
        if not isinstance(record, RawEvent):
            continue
        if not (lo <= record.timestamp <= hi):
            continue
        field_map = dict(record.fields)
        if all(field_map.get(name) == value for name, value in filters):
            count += 1
    return float(count)


# -- aggregation by rescanning ---------------------------------------------------
# The record scan the package used before it indexed logs by date: each
# (base, period) and each density sub-period walks every record again.


def _scan_base(
    base: BaseMeasurementDef,
    records: tuple[MeasurementRecord, ...],
    lo: dt.date,
    hi: dt.date,
) -> float | None:
    """One base over the days lo..hi; None when a DIRECT base has no data."""
    if base.mode is SourceMode.COUNT:
        count = 0
        for record in records:
            if isinstance(record, RawEvent) and lo <= record.timestamp <= hi:
                field_map = dict(record.fields)
                if all(field_map.get(name) == value for name, value in base.filters):
                    count += 1
        return float(count)
    entries = [
        record
        for record in records
        if isinstance(record, DirectEntry) and record.base == base.id and lo <= record.timestamp <= hi
    ]
    if not entries:
        return None
    if base.aggregation is Aggregation.SUM:
        return float(sum(entry.value for entry in entries))
    return max(entries, key=lambda e: (e.timestamp, e.line)).value


def scan_aggregate(
    records: tuple[MeasurementRecord, ...],
    metric: MetricDef,
    period_key: str,
    model: Model,
) -> dict[str, float]:
    """Bindings of the metric's bases over one period, by rescanning records."""
    lo, hi = period_bounds(period_key)
    bindings = {}
    for base_id in metric.uses:
        value = _scan_base(model.bases[base_id], records, lo, hi)
        if value is not None:
            bindings[base_id] = value
    return bindings


def _key_of(day: dt.date, granularity: Granularity) -> str:
    if granularity is Granularity.DAILY:
        return day.isoformat()
    if granularity is Granularity.WEEKLY:
        year, week, _ = day.isocalendar()
        return f"{year:04d}-W{week:02d}"
    if granularity is Granularity.MONTHLY:
        return f"{day.year:04d}-{day.month:02d}"
    if granularity is Granularity.QUARTERLY:
        return f"{day.year:04d}-Q{(day.month + 2) // 3}"
    return f"{day.year:04d}"


def scan_density_warnings(
    records: tuple[MeasurementRecord, ...],
    metric: MetricDef,
    period_key: str,
    model: Model,
) -> tuple[str, ...]:
    """Collection sub-periods with no data on their days inside the period.

    Sub-periods are found by walking every day of the period; a straddling
    one (an ISO week across a month end) is judged on its inside days only.
    """
    if metric.schedule is None:
        return ()
    lo, hi = period_bounds(period_key)
    days: dict[str, list[dt.date]] = {}
    for offset in range((hi - lo).days + 1):
        day = lo + dt.timedelta(days=offset)
        days.setdefault(_key_of(day, metric.schedule.collection), []).append(day)
    if len(days) == 1:
        return ()
    warnings = []
    for subkey, inside in days.items():
        values = [
            (base, _scan_base(base, records, inside[0], inside[-1]))
            for base in (model.bases[b] for b in metric.uses)
        ]
        if not any(
            value is not None and not (base.mode is SourceMode.COUNT and value == 0.0)
            for base, value in values
        ):
            warnings.append(
                f"collection period {subkey} inside {period_key} has no records for metric {metric.id}"
            )
    return tuple(warnings)


# -- evaluation by an explicit loop ----------------------------------------------


def evaluate_by_loop(model: Model, graph, log, metric_ids: list[str], keys: list[str]) -> tuple[list, list]:
    """Every metric over every key, one `evaluate_period` call at a time.

    A metric refused on some key keeps none of the results of its earlier
    keys and adds one (metric id, PeriodError) pair to the skipped list.
    """
    results: list = []
    skipped: list[tuple[str, PeriodError]] = []
    for metric_id in metric_ids:
        own = []
        refusal: PeriodError | None = None
        for key in keys:
            try:
                own.append(evaluate_period(model, graph, log, metric_id, key))
            except PeriodError as exc:
                refusal = exc
                break
        if refusal is None:
            results.extend(own)
        else:
            skipped.append((metric_id, refusal))
    return results, skipped


# -- orphans after node removal --------------------------------------------------


def _closure_links(model: Model) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Parent and child sets built straight from node fields (refines, measures, question goal, metric answers)."""
    up: dict[str, set[str]] = defaultdict(set)
    down: dict[str, set[str]] = defaultdict(set)

    def link(child: str, parent: str) -> None:
        up[child].add(parent)
        down[parent].add(child)

    for bo in model.objectives.values():
        if bo.refines:
            link(bo.id, bo.refines)
    for goal in model.goals.values():
        for target in goal.measures:
            link(goal.id, target)
    for question in model.questions.values():
        if question.goal:
            link(question.id, question.goal)
    for metric in model.metrics.values():
        for q_id in metric.answers:
            link(metric.id, q_id)
    return up, down


def _descendants(down: dict[str, set[str]], node_id: str) -> set[str]:
    descendants: set[str] = set()
    stack = [node_id]
    while stack:
        for child in down[stack.pop()]:
            if child != node_id and child not in descendants:
                descendants.add(child)
                stack.append(child)
    return descendants


def derived_from(model: Model, node_id: str) -> set[str]:
    """What a change to node_id puts under review downstream, recomputed from node fields.

    A node's descendants over the closure edges; for a base, which is outside
    the closure, the metrics that use it.
    """
    if node_id in model.bases:
        return {m.id for m in model.metrics.values() if node_id in m.uses}
    return _descendants(_closure_links(model)[1], node_id)


def orphans_after_removal(model: Model, removed: str) -> set[str]:
    """Recompute downstream orphans from scratch.

    Builds its own ancestor edges straight from node fields, finds the removed
    node's descendants, and keeps those that cannot reach any surviving
    top-level objective once the removed node is gone.
    """
    up, down = _closure_links(model)
    descendants = _descendants(down, removed)

    roots = {i for i, bo in model.objectives.items() if bo.refines is None} - {removed}

    orphans: set[str] = set()
    for node in descendants:
        if node in roots:
            continue
        seen = {node, removed}
        stack = [node]
        reached = False
        while stack and not reached:
            for parent in up[stack.pop()]:
                if parent in seen:
                    continue
                if parent in roots:
                    reached = True
                    break
                seen.add(parent)
                stack.append(parent)
        if not reached:
            orphans.add(node)
    return orphans


# -- impact neighbours by model scans ---------------------------------------------
# How impact analysis found these sets before it read them from the graph:
# by scanning the model's nodes for each change.


def root_objectives_by_scan(model: Model) -> set[str]:
    return {bo_id for bo_id, bo in model.objectives.items() if bo.refines is None}


def related_by_scan(model: Model, node_id: str) -> set[str]:
    """The node's own depends_on/affects targets and the objectives naming it in theirs."""
    related: set[str] = set()
    bo = model.objectives.get(node_id)
    if bo is not None:
        related.update(bo.depends_on)
        related.update(bo.affects)
    for other_id, other in model.objectives.items():
        if node_id in other.depends_on or node_id in other.affects:
            related.add(other_id)
    related.discard(node_id)
    return related


def users_by_scan(model: Model, base_id: str) -> set[str]:
    """The metrics whose `uses` names the base."""
    return {metric_id for metric_id, metric in model.metrics.items() if base_id in metric.uses}


# -- the traceability graph, built at once --------------------------------------
# How `build_graph` built every table before it built each on first read: one
# pass over the model's edge rows makes every edge, and one pass over the
# edges fills all four neighbour tables.


class EagerGraph(NamedTuple):
    nodes: dict[str, str]
    edges: tuple[Edge, ...]
    closure_up: dict[str, tuple[str, ...]]
    closure_down: dict[str, tuple[str, ...]]
    related: dict[str, tuple[str, ...]]
    used_by: dict[str, tuple[str, ...]]


def graph_built_at_once(model: Model) -> EagerGraph:
    """Every table of the traceability graph of `model`, built in one call."""
    edge_rows = {
        kind: [(f.attribute, REFERENCED[f.value_kind], EdgeKind(f.edge)) for f in fields if f.edge]
        for kind, fields in FIELDS.items()
    }
    edges = [
        Edge(edge_kind, src, dst)
        for kind, rows in edge_rows.items()
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
        elif edge.kind in (EdgeKind.DEPENDS_ON, EdgeKind.AFFECTS) and src != dst:
            related[src].add(dst)
            related[dst].add(src)
    ordered = tuple(sorted(edges, key=lambda e: (e.kind.value, e.src, e.dst)))
    adjacency = ({n: tuple(sorted(ns)) for n, ns in table.items()} for table in (up, down, related, used_by))
    return EagerGraph(model.kinds, ordered, *adjacency)


# -- diffs on canonical dicts -----------------------------------------------------
# The diff the package had before it compared frozen nodes and read fields
# from one field table: every node of both models is turned into the dict
# its class's `to_canonical` method built, and the dicts are compared. The
# dicts are kept as written; the methods became one function per node class,
# and those of nested values (scope, interval, band, step, action, schedule)
# became helpers or inline dicts.


def _scope_canonical(ref: ScopeRef) -> dict:
    return {
        "universe": ref.universe,
        "selection": "ALL" if ref.selection is None else list(ref.selection),
        "description": ref.description,
    }


def _interval_canonical(iv: Interval) -> dict:
    return {
        "lo": iv.lo,
        "hi": iv.hi,
        "lo_closed": iv.lo_closed,
        "hi_closed": iv.hi_closed,
    }


def _band_canonical(band: InterpretationBand) -> dict:
    return {
        "interval": _interval_canonical(band.interval),
        "label": band.label,
        "actions": [
            {"kind": a.kind.value, "target": {"ref": a.target.ref, "owner": a.target.is_owner}}
            for a in band.actions
        ],
    }


_TO_CANONICAL = {
    Stakeholder: lambda n: {"id": n.id, "name": n.name, "role": n.role},
    ScopeUniverse: lambda n: {"id": n.id, "facets": list(n.facets)},
    BusinessObjective: lambda n: {
        "id": n.id,
        "object": n.object,
        "scope": _scope_canonical(n.scope) if n.scope else None,
        "purpose": n.purpose,
        "viewpoint": list(n.viewpoint),
        "context": n.context,
        "refines": n.refines,
        "depends_on": list(n.depends_on),
        "affects": list(n.affects),
        "priority": n.priority,
        "priority_justification": n.priority_justification,
    },
    Strategy: lambda n: {
        "id": n.id,
        "for": n.for_objective,
        "steps": [{"text": s.text, "spawns": list(s.spawns)} for s in n.steps],
        "justification": n.justification,
    },
    MeasurementGoal: lambda n: {
        "id": n.id,
        "object": n.object,
        "purpose": n.purpose,
        "focus": n.focus,
        "scope": n.scope,
        "criteria": list(n.criteria),
        "viewpoint": list(n.viewpoint),
        "context": n.context,
        "measures": list(n.measures),
        "related": list(n.related),
    },
    MeasurementQuestion: lambda n: {
        "id": n.id,
        "goal": n.goal,
        "text": n.text,
        "status": n.status.value,
    },
    BaseMeasurementDef: lambda n: {
        "id": n.id,
        "description": n.description,
        "mode": n.mode.value,
        "filters": [list(f) for f in n.filters],
        "aggregation": n.aggregation.value if n.aggregation else None,
    },
    MetricDef: lambda n: {
        "id": n.id,
        "description": n.description,
        "goal": n.goal,
        "answers": list(n.answers),
        "uses": list(n.uses),
        "method": n.method,
        "function": _expr.to_text(n.function) if n.function else None,
        "bands": [_band_canonical(b) for b in n.bands],
        "schedule": (
            {"collection": n.schedule.collection.value, "reporting": n.schedule.reporting.value}
            if n.schedule
            else None
        ),
        "stakeholders": list(n.stakeholders),
        "domain": _interval_canonical(n.domain) if n.domain else None,
        "created": n.created.isoformat() if n.created else None,
        "modified": n.modified.isoformat() if n.modified else None,
        "reviewed": n.reviewed.isoformat() if n.reviewed else None,
    },
}


def model_to_canonical(model: Model) -> dict:
    out: dict = {}
    for kind in NODE_KINDS:
        coll = model.collection(kind)
        out[kind + "s"] = {
            node_id: _TO_CANONICAL[type(node)](node) for node_id, node in sorted(coll.items())
        }
    return out


def diff_by_canonical(old: Model, new: Model) -> list[Change]:
    """Node-level diff keyed by (kind, id); field diffs on canonical forms."""
    old_canon = model_to_canonical(old)
    new_canon = model_to_canonical(new)
    changes: list[Change] = []
    for kind in NODE_KINDS:
        old_nodes = old_canon[kind + "s"]
        new_nodes = new_canon[kind + "s"]
        for node_id in sorted(old_nodes.keys() | new_nodes.keys()):
            if node_id not in new_nodes:
                changes.append(Change(ChangeKind.REMOVED, kind, node_id))
            elif node_id not in old_nodes:
                changes.append(Change(ChangeKind.ADDED, kind, node_id))
            elif old_nodes[node_id] != new_nodes[node_id]:
                fields = tuple(
                    FieldChange(name, old_nodes[node_id][name], new_nodes[node_id][name])
                    for name in sorted(old_nodes[node_id])
                    if old_nodes[node_id][name] != new_nodes[node_id][name]
                )
                changes.append(Change(ChangeKind.MODIFIED, kind, node_id, fields))
    changes.sort(key=lambda c: (c.node_kind, c.node_id))
    return changes


# -- tokenizing one character at a time --------------------------------------------
# The tokenizer the package had before it lexed with one compiled pattern, kept
# as written, except that it reads only ASCII digits, lets a number take an
# exponent (`1e-05`) and builds each token through `_token`, as a `CharToken`
# that holds its span. It differs on
# purpose in one case only: a backslash directly before a newline inside a
# string escapes the newline here (and loses count of the line), while the
# package ends the string at the newline.

# Dots inside identifiers must be followed by an alphanumeric, so that
# "org.*" lexes as IDENT(org) DOT STAR while "BO1.1" stays one identifier.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?![0-9])")
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACK,
    "]": TokenKind.RBRACK,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "=": TokenKind.EQUALS,
}

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


class CharToken(NamedTuple):
    """A token of the character loop: the fields of the package's Token that
    tests compare, with the span built as the token is read."""

    kind: TokenKind
    text: str
    span: SourceSpan
    value: float | None = None


def _token(kind: TokenKind, text: str, span: SourceSpan, value: float | None = None) -> CharToken:
    return CharToken(kind, text, span, value)


def token_list(tokens: Tokens) -> list[Token]:
    """The package's tokens of one file, each built into a `Token`."""
    return [tokens[index] for index in range(len(tokens))]


def char_tokens(tokens: Tokens, text: str, filename: str) -> list[CharToken]:
    """The package's tokens of `text`, each with the span and number value the character loop gives it."""
    source = Source(filename, text)
    number = TokenKind.NUMBER
    return [
        _token(t.kind, t.text, source.span(t.offset, t.length), parse_number(t.text) if t.kind is number else None)
        for t in token_list(tokens)
    ]


def tokenize_by_characters(text: str, filename: str = "<string>") -> tuple[list[CharToken], list[Diagnostic]]:
    """Total: any input yields a token list (ending in EOF) plus diagnostics."""
    tokens: list[CharToken] = []
    diags: list[Diagnostic] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)

    def span(start: int, length: int) -> SourceSpan:
        return SourceSpan(filename, line, start - line_start + 1, max(length, 1))

    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        if ch == '"':
            start = pos
            pos += 1
            out: list[str] = []
            closed = False
            while pos < n:
                c = text[pos]
                if c == '"':
                    pos += 1
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\":
                    if pos + 1 < n and text[pos + 1] in _ESCAPES:
                        out.append(_ESCAPES[text[pos + 1]])
                        pos += 2
                        continue
                    # Unknown escape: keep the next character literally.
                    if pos + 1 < n:
                        out.append(text[pos + 1])
                        pos += 2
                        continue
                    pos += 1
                    continue
                out.append(c)
                pos += 1
            if not closed:
                diags.append(
                    Diagnostic(
                        "P002",
                        Severity.ERROR,
                        "unterminated string literal",
                        span(start, pos - start),
                    )
                )
            tokens.append(_token(TokenKind.STRING, "".join(out), span(start, pos - start)))
            continue
        m = _DATE_RE.match(text, pos)
        if m:
            tokens.append(_token(TokenKind.DATE, m.group(), span(pos, len(m.group()))))
            pos = m.end()
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(
                _token(
                    TokenKind.NUMBER,
                    m.group(),
                    span(pos, len(m.group())),
                    value=parse_number(m.group()),
                )
            )
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(_token(TokenKind.IDENT, m.group(), span(pos, len(m.group()))))
            pos = m.end()
            continue
        if text.startswith("->", pos):
            tokens.append(_token(TokenKind.ARROW, "->", span(pos, 2)))
            pos += 2
            continue
        if ch in _PUNCT:
            tokens.append(_token(_PUNCT[ch], ch, span(pos, 1)))
            pos += 1
            continue
        diags.append(
            Diagnostic(
                "P001",
                Severity.ERROR,
                f"unexpected character {ch!r}",
                span(pos, 1),
            )
        )
        pos += 1

    tokens.append(_token(TokenKind.EOF, "", SourceSpan(filename, line, n - line_start + 1, 1)))
    return tokens, diags


# -- ingest by decoding every line ----------------------------------------------
# The ingest the package had before it matched the usual line shapes with one
# pattern: every line is decoded in full by json's decoder, and each accepted
# line is one record. Kept as written, except that a timestamp must be
# exactly YYYY-MM-DD in ASCII digits and the result is this module's
# DecodedLog.

_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _bad_line(filename: str, line_no: int, message: str, code: str = "I001") -> Diagnostic:
    span = SourceSpan(filename, line_no, 1)
    return Diagnostic(code, Severity.ERROR, message, span, None)


def _parse_timestamp(text: object) -> dt.date:
    if not isinstance(text, str):
        raise ValueError(f"timestamp must be a string, got {type(text).__name__}")
    if not _TIMESTAMP_RE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def _finite_number(value: object) -> float | None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


def _parse_int(text: str) -> int:
    # README: an integer of more than 4,300 digits gets one message on every Python.
    if len(text.lstrip("-")) > 4300:
        raise ValueError("integer with more than 4300 digits")
    return int(text)


_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_int=_parse_int)


def _decode(line: str) -> object:
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        return _DECODER.decode(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def ingest_lines_by_decoding(lines: list[str], filename: str, model: Model) -> DecodedLog:
    records: list[MeasurementRecord] = []
    diags: list[Diagnostic] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = _decode(stripped)
        except ValueError as exc:
            diags.append(_bad_line(filename, line_no, f"malformed log line: {exc}"))
            continue
        if not isinstance(obj, dict):
            diags.append(_bad_line(filename, line_no, "malformed log line: not a JSON object"))
            continue

        try:
            timestamp = _parse_timestamp(obj.get("timestamp"))
        except ValueError as exc:
            diags.append(_bad_line(filename, line_no, f"invalid date: {exc}", code="I003"))
            continue

        has_base = "base" in obj
        has_fields = "fields" in obj
        if has_base == has_fields:
            diags.append(
                _bad_line(
                    filename,
                    line_no,
                    "malformed log line: need exactly one of 'base' or 'fields'",
                )
            )
            continue

        if has_base:
            base_id = obj["base"]
            value = obj.get("value")
            if not isinstance(base_id, str):
                diags.append(_bad_line(filename, line_no, "malformed log line: 'base' must be a string"))
                continue
            number = _finite_number(value)
            if number is None:
                diags.append(
                    _bad_line(filename, line_no, "malformed log line: 'value' must be a finite number")
                )
                continue
            base_def = model.bases.get(base_id)
            if base_def is None:
                diags.append(
                    _bad_line(filename, line_no, f"unknown base measurement {base_id!r}", code="I002")
                )
                continue
            if base_def.mode is not SourceMode.DIRECT:
                diags.append(
                    _bad_line(
                        filename,
                        line_no,
                        f"base measurement {base_id!r} is not DIRECT mode and cannot take reported values",
                        code="I002",
                    )
                )
                continue
            records.append(DirectEntry(timestamp, base_id, number, line_no))
        else:
            fields = obj["fields"]
            if not isinstance(fields, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in fields.items()
            ):
                diags.append(
                    _bad_line(
                        filename,
                        line_no,
                        "malformed log line: 'fields' must map strings to strings",
                    )
                )
                continue
            records.append(RawEvent(timestamp, tuple(sorted(fields.items())), line_no))
    return DecodedLog(tuple(records), tuple(sorted(diags, key=sort_key)))


# -- line classification by one pattern ------------------------------------------
# The line classifier as the package had it before it compared a line's
# prefix and separator by slicing and matched the text after the date once
# per distinct text: one pattern matches the whole stripped line, and
# `field_sets` decodes a `fields` object. The slow path (`_decode_line`) and
# the number reader (`_json_number`) are the package's own, and a line is
# classified in their shape: its date and what it says after the date.
# `ingest_lines_by_one_pattern` classifies each line with it, one by one.

# The two record shapes exactly as json.dumps writes them, with a base name
# free of escapes and control characters. Groups: date, base, number, the
# number's fraction and exponent (empty for an integer), fields object.
_SHAPES = re.compile(
    r'\{"timestamp": "([0-9]{4}-[0-9]{2}-[0-9]{2})", '
    r'(?:"base": "([^"\\\x00-\x1f]*)", '
    r'"value": (-?(?:0|[1-9][0-9]*)((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))'
    r'|"fields": (\{.*\}))\}'
)


def classify_line_by_one_pattern(
    text: str,
    dates: Callable[[str], dt.date | None],
    field_sets: Callable[[str], tuple[tuple[str, str], ...] | None],
) -> tuple[dt.date | None, tuple] | None:
    """One log line text classified; None when it is blank.

    A line in one of the two shapes json.dumps writes takes the fast path:
    one regex match, its date from `dates` and its `fields` object from
    `field_sets`. Every other line, and a fast-path line that fails a
    check, is decoded in full by `_decode_line`.
    """
    stripped = text.strip()
    if not stripped:
        return None
    shape = _SHAPES.fullmatch(stripped)
    if shape is not None and (timestamp := dates(shape[1])) is not None:
        _, base_id, number, fraction, fields_text = shape.groups()
        if fields_text is not None:
            fields = field_sets(fields_text)
            if fields is not None:
                return timestamp, (_EVENT, fields)
        elif (value := _json_number(number, fraction)) is not None:
            return timestamp, (_DIRECT, base_id, value)
    return _decode_line(stripped)


def ingest_lines_by_one_pattern(
    lines: list[str], filename: str, model: Model
) -> tuple[list[DirectEntry], dict[tuple, dict[dt.date, int]], tuple[Diagnostic, ...]]:
    """The DIRECT entries, raw-event tally and diagnostics of one log's lines.

    Each line is classified on its own by `classify_line_by_one_pattern`,
    with one fresh set of caches per call, and a DIRECT line's base is then
    checked against the model (I002).
    """
    dates, field_sets = cache(_date_or_none), cache(_decoded_field_set)
    records: list[DirectEntry] = []
    events: dict[tuple, dict[dt.date, int]] = {}
    diags: list[Diagnostic] = []
    for line_no, line in enumerate(lines, start=1):
        classified = classify_line_by_one_pattern(line, dates, field_sets)
        if classified is None:
            continue
        day, (kind, *item) = classified
        if kind == _EVENT:
            days = events.setdefault(item[0], {})
            days[day] = days.get(day, 0) + 1
        elif kind != _DIRECT:
            diags.append(_bad_line(filename, line_no, *item))
        elif (base := model.bases.get(item[0])) is None:
            diags.append(_bad_line(filename, line_no, f"unknown base measurement {item[0]!r}", "I002"))
        elif base.mode is not SourceMode.DIRECT:
            message = f"base measurement {item[0]!r} is not DIRECT mode and cannot take reported values"
            diags.append(_bad_line(filename, line_no, message, "I002"))
        else:
            records.append(DirectEntry(day, item[0], item[1], line_no))
    return records, events, tuple(sorted(diags, key=sort_key))


# -- parsing one token per method call ----------------------------------------------
# The parser the package had before it read fields by index into the token
# list, kept as written (`parse` is renamed `parse_token_by_token`, and `_dt`
# is this module's `dt`): every token goes through peek, advance, expect or
# at. It reads the tokens of the package's lexer, so it checks the parser
# alone. Two rules were added since: a number literal too large for a float
# (its token's value is infinity), or too small for one (a nonzero digit,
# but the value is 0), is P001 wherever a number is read, and the field it
# is in is dropped; the message shows a literal of up to 19 characters
# whole, and a longer one by its ends and length.

# Largest offset passed to _Parser.peek.
_LOOKAHEAD = 2

# Fields that may legitimately repeat within one block.
_REPEATABLE = {"band", "step"}

# Block field names that differ from the node attribute they fill.
_ATTRIBUTE_OF = {"for": "for_objective", "where": "filters", "step": "steps", "band": "bands"}

# Deepest metric function accepted: operator nesting (leaves count 0, each
# Neg or BinOp one more than its deepest child) and parenthesis nesting.
MAX_EXPR_DEPTH = 200

_GRANULARITIES = {g.value: g for g in Granularity}
_ACTION_KINDS = {k.value: k for k in ActionKind}


class _Parser:
    def __init__(
        self,
        text: str,
        filename: str,
        builder: _Builder,
        diags: list[Diagnostic],
        include_stack: tuple[str, ...],
    ) -> None:
        self.filename = filename
        self.builder = builder
        self.diags = diags
        self.include_stack = include_stack
        tokens, lex_diags = tokenize(text, filename)
        tokens = char_tokens(tokens, text, filename)
        # The position never passes the EOF token, so _LOOKAHEAD more copies
        # of it keep every peek in range.
        self.tokens = tokens + [tokens[-1]] * _LOOKAHEAD
        self.diags.extend(lex_diags)
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> CharToken:
        return self.tokens[self.pos + offset]

    def advance(self) -> CharToken:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def error(self, code: str, message: str, span: SourceSpan) -> None:
        self.diags.append(Diagnostic(code, Severity.ERROR, message, span))

    def expect(self, kind: TokenKind, what: str) -> CharToken | None:
        tok = self.peek()
        if tok.kind is kind:
            return self.advance()
        shown = tok.text or tok.kind.value
        self.error("P001", f"expected {what}, found {shown!r}", tok.span)
        return None

    # -- recovery ----------------------------------------------------------

    def skip_block(self) -> None:
        """Skip tokens through a balanced { ... } group, or to the next block."""
        depth = 0
        while not self.at(TokenKind.EOF):
            tok = self.advance()
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                depth -= 1
                if depth <= 0:
                    return
            elif depth == 0 and tok.kind is TokenKind.IDENT and tok.text in NODE_TYPES:
                self.pos -= 1
                return

    def skip_to_field_boundary(self) -> None:
        """Skip a malformed field value: stop before `name :` at depth 0 or `}`."""
        depth = 0
        while not self.at(TokenKind.EOF):
            tok = self.peek()
            if depth == 0:
                if tok.kind is TokenKind.RBRACE:
                    return
                if tok.kind is TokenKind.IDENT and self.peek(1).kind is TokenKind.COLON:
                    return
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                depth -= 1
                if depth < 0:
                    return
            self.advance()

    # -- model structure ---------------------------------------------------

    def parse_model(self) -> None:
        while not self.at(TokenKind.EOF):
            tok = self.peek()
            if tok.kind is TokenKind.IDENT and tok.text == "include":
                self.parse_include()
            elif tok.kind is TokenKind.IDENT and tok.text in NODE_TYPES:
                self.parse_block(tok.text)
            elif (
                tok.kind is TokenKind.IDENT
                and self.peek(1).kind is TokenKind.IDENT
                and self.peek(2).kind is TokenKind.LBRACE
            ):
                self.error("P003", f"unknown block kind {tok.text!r}", tok.span)
                self.advance()
                self.advance()
                self.skip_block()
            else:
                shown = tok.text or tok.kind.value
                self.error("P001", f"expected a block declaration, found {shown!r}", tok.span)
                self.advance()

    def parse_include(self) -> None:
        self.advance()  # include
        path_tok = self.expect(TokenKind.STRING, "a quoted file path")
        if path_tok is None:
            return
        base = os.path.dirname(self.filename)
        target = os.path.normpath(os.path.join(base, path_tok.text))
        key = os.path.abspath(target)
        if key in self.include_stack:
            self.error("P006", f"include cycle through {target!r}", path_tok.span)
            return
        try:
            text = Path(target).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            self.error("P007", f"cannot read include {target!r}: {reason}", path_tok.span)
            return
        sub = _Parser(text, target, self.builder, self.diags, self.include_stack + (key,))
        sub.parse_model()

    def parse_block(self, kind: str) -> None:
        self.advance()  # kind keyword
        id_tok = self.expect(TokenKind.IDENT, f"an identifier after {kind!r}")
        if id_tok is None:
            self.skip_block()
            return
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.skip_block()
            return
        fields: dict[str, object] = {}
        seen: set[str] = set()
        while not self.at(TokenKind.RBRACE) and not self.at(TokenKind.EOF):
            name_tok = self.peek()
            if name_tok.kind is not TokenKind.IDENT:
                shown = name_tok.text or name_tok.kind.value
                self.error("P001", f"expected a field name, found {shown!r}", name_tok.span)
                self.advance()
                continue
            self.advance()
            if self.expect(TokenKind.COLON, f"':' after field {name_tok.text!r}") is None:
                self.skip_to_field_boundary()
                continue
            name = name_tok.text
            duplicate = name in seen and name not in _REPEATABLE
            if duplicate:
                self.error("P004", f"duplicate field {name!r} in {kind} block", name_tok.span)
            seen.add(name)
            value = self.parse_field_value(kind, name, name_tok)
            if duplicate or value is None:
                continue
            if name in _REPEATABLE:
                fields.setdefault(name, []).append(value)
            else:
                fields[name] = value
        self.expect(TokenKind.RBRACE, "'}'")
        self.builder.add(kind, self.assemble(kind, id_tok.text, fields), id_tok.span)

    # -- field dispatch ----------------------------------------------------

    _SCHEMA: dict[tuple[str, str], str] = {
        (KIND_STAKEHOLDER, "name"): "str",
        (KIND_STAKEHOLDER, "role"): "str",
        (KIND_UNIVERSE, "facets"): "ident_list",
        (KIND_OBJECTIVE, "object"): "str",
        (KIND_OBJECTIVE, "scope"): "scope",
        (KIND_OBJECTIVE, "purpose"): "str",
        (KIND_OBJECTIVE, "viewpoint"): "ident_list",
        (KIND_OBJECTIVE, "context"): "str",
        (KIND_OBJECTIVE, "refines"): "ident",
        (KIND_OBJECTIVE, "depends_on"): "ident_list",
        (KIND_OBJECTIVE, "affects"): "ident_list",
        (KIND_OBJECTIVE, "priority"): "int",
        (KIND_OBJECTIVE, "priority_justification"): "str",
        (KIND_STRATEGY, "for"): "ident",
        (KIND_STRATEGY, "step"): "step",
        (KIND_STRATEGY, "justification"): "str",
        (KIND_GOAL, "object"): "str",
        (KIND_GOAL, "purpose"): "str",
        (KIND_GOAL, "focus"): "str",
        (KIND_GOAL, "scope"): "str",
        (KIND_GOAL, "criteria"): "str_list",
        (KIND_GOAL, "viewpoint"): "ident_list",
        (KIND_GOAL, "context"): "str",
        (KIND_GOAL, "measures"): "ident_list",
        (KIND_GOAL, "related"): "ident_list",
        (KIND_QUESTION, "goal"): "ident",
        (KIND_QUESTION, "text"): "str",
        (KIND_QUESTION, "status"): "status",
        (KIND_BASE, "description"): "str",
        (KIND_BASE, "mode"): "mode",
        (KIND_BASE, "where"): "filters",
        (KIND_BASE, "aggregation"): "aggregation",
        (KIND_METRIC, "description"): "str",
        (KIND_METRIC, "created"): "date",
        (KIND_METRIC, "modified"): "date",
        (KIND_METRIC, "reviewed"): "date",
        (KIND_METRIC, "goal"): "ident",
        (KIND_METRIC, "answers"): "ident_list",
        (KIND_METRIC, "uses"): "ident_list",
        (KIND_METRIC, "method"): "str",
        (KIND_METRIC, "function"): "expr",
        (KIND_METRIC, "domain"): "interval",
        (KIND_METRIC, "band"): "band",
        (KIND_METRIC, "schedule"): "schedule",
        (KIND_METRIC, "stakeholders"): "ident_list",
    }

    def parse_field_value(self, kind: str, name: str, name_tok: CharToken):
        value_kind = self._SCHEMA.get((kind, name))
        if value_kind is None:
            self.error("P001", f"unknown field {name!r} in {kind} block", name_tok.span)
            self.skip_to_field_boundary()
            return None
        parser = getattr(self, "parse_value_" + value_kind)
        value = parser()
        if value is None:
            self.skip_to_field_boundary()
        return value

    # -- value parsers -----------------------------------------------------

    def parse_value_str(self) -> str | None:
        tok = self.expect(TokenKind.STRING, "a quoted string")
        return tok.text if tok else None

    def parse_value_ident(self) -> str | None:
        tok = self.expect(TokenKind.IDENT, "an identifier")
        return tok.text if tok else None

    def parse_value_ident_list(self) -> tuple[str, ...] | None:
        items: list[str] = []
        tok = self.expect(TokenKind.IDENT, "an identifier")
        if tok is None:
            return None
        items.append(tok.text)
        while self.at(TokenKind.COMMA):
            self.advance()
            tok = self.expect(TokenKind.IDENT, "an identifier after ','")
            if tok is None:
                return tuple(items)
            items.append(tok.text)
        return tuple(items)

    def parse_value_str_list(self) -> tuple[str, ...] | None:
        items: list[str] = []
        tok = self.expect(TokenKind.STRING, "a quoted string")
        if tok is None:
            return None
        items.append(tok.text)
        while self.at(TokenKind.COMMA):
            self.advance()
            tok = self.expect(TokenKind.STRING, "a quoted string after ','")
            if tok is None:
                return tuple(items)
            items.append(tok.text)
        return tuple(items)

    def out_of_range(self, tok: CharToken) -> bool:
        text = tok.text
        if math.isinf(tok.value):
            size = "large"
        elif tok.value == 0 and any(c in "123456789" for c in re.split("[eE]", text)[0]):
            size = "small"
        else:
            return False
        if len(text) > 19:
            text = f"{text[:8]}...{text[-8:]} ({len(text)} characters)"
        self.error("P001", f"number too {size}: {text}", tok.span)
        return True

    def parse_value_int(self) -> int | None:
        tok = self.expect(TokenKind.NUMBER, "a number")
        if tok is None or self.out_of_range(tok):
            return None
        if tok.value != int(tok.value):
            self.error("P001", f"expected an integer, found {tok.text!r}", tok.span)
            return None
        return int(tok.text.lstrip("0") or "0") if tok.text.isdigit() else int(tok.value)

    def parse_value_date(self) -> dt.date | None:
        tok = self.expect(TokenKind.DATE, "a date (YYYY-MM-DD)")
        if tok is None:
            return None
        try:
            return dt.date.fromisoformat(tok.text)
        except ValueError:
            self.error("P001", f"invalid date {tok.text!r}", tok.span)
            return None

    def parse_value_status(self) -> QuestionStatus | None:
        tok = self.expect(TokenKind.IDENT, "'open' or 'answered'")
        if tok is None:
            return None
        try:
            return QuestionStatus(tok.text)
        except ValueError:
            self.error("P001", f"expected 'open' or 'answered', found {tok.text!r}", tok.span)
            return None

    def parse_value_mode(self) -> SourceMode | None:
        tok = self.expect(TokenKind.IDENT, "'count' or 'direct'")
        if tok is None:
            return None
        try:
            return SourceMode(tok.text)
        except ValueError:
            self.error("P001", f"expected 'count' or 'direct', found {tok.text!r}", tok.span)
            return None

    def parse_value_aggregation(self) -> Aggregation | None:
        tok = self.expect(TokenKind.IDENT, "'sum' or 'latest'")
        if tok is None:
            return None
        try:
            return Aggregation(tok.text)
        except ValueError:
            self.error("P001", f"expected 'sum' or 'latest', found {tok.text!r}", tok.span)
            return None

    def parse_value_filters(self) -> tuple[tuple[str, str], ...] | None:
        pairs: list[tuple[str, str]] = []
        while True:
            name = self.expect(TokenKind.IDENT, "a record field name")
            if name is None:
                return tuple(pairs) if pairs else None
            if self.expect(TokenKind.EQUALS, "'='") is None:
                return tuple(pairs) if pairs else None
            value = self.expect(TokenKind.STRING, "a quoted value")
            if value is None:
                return tuple(pairs) if pairs else None
            pairs.append((name.text, value.text))
            if not self.at(TokenKind.COMMA):
                return tuple(pairs)
            self.advance()

    def parse_value_scope(self) -> ScopeRef | None:
        tok = self.expect(TokenKind.IDENT, "a universe identifier")
        if tok is None:
            return None
        selection: tuple[str, ...] | None = None
        if self.at(TokenKind.DOT):
            self.advance()
            if self.at(TokenKind.STAR):
                self.advance()
            elif self.at(TokenKind.LBRACE):
                self.advance()
                facets = self.parse_value_ident_list()
                if facets is None:
                    return None
                selection = facets
                if self.expect(TokenKind.RBRACE, "'}' closing the facet list") is None:
                    return None
            else:
                bad = self.peek()
                self.error("P001", "expected '*' or '{facets}' after '.'", bad.span)
                return None
        description: str | None = None
        if self.at(TokenKind.STRING):
            description = self.advance().text
        return ScopeRef(universe=tok.text, selection=selection, description=description)

    def parse_value_schedule(self) -> ReportingSchedule | None:
        first = self.expect(TokenKind.IDENT, "a collection period")
        if first is None:
            return None
        if first.text not in _GRANULARITIES:
            self.error("P001", f"unknown period {first.text!r}", first.span)
            return None
        if self.expect(TokenKind.SLASH, "'/' between collection and reporting periods") is None:
            return None
        second = self.expect(TokenKind.IDENT, "a reporting period")
        if second is None:
            return None
        if second.text not in _GRANULARITIES:
            self.error("P001", f"unknown period {second.text!r}", second.span)
            return None
        return ReportingSchedule(_GRANULARITIES[first.text], _GRANULARITIES[second.text])

    def parse_signed_number(self, what: str) -> float | None:
        negative = False
        if self.at(TokenKind.MINUS):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind is not TokenKind.NUMBER:
            shown = tok.text or tok.kind.value
            self.error("P005", f"malformed interval: expected {what}, found {shown!r}", tok.span)
            return None
        self.advance()
        if self.out_of_range(tok):
            return None
        value = -tok.value if negative else tok.value
        return 0.0 if value == 0 else value

    def parse_value_interval(self) -> Interval | None:
        open_tok = self.peek()
        if open_tok.kind is TokenKind.LBRACK:
            lo_closed = True
        elif open_tok.kind is TokenKind.LPAREN:
            lo_closed = False
        else:
            shown = open_tok.text or open_tok.kind.value
            self.error("P005", f"malformed interval: expected '[' or '(', found {shown!r}", open_tok.span)
            return None
        self.advance()
        lo = self.parse_signed_number("a lower endpoint")
        if lo is None:
            return None
        comma = self.peek()
        if comma.kind is not TokenKind.COMMA:
            shown = comma.text or comma.kind.value
            self.error("P005", f"malformed interval: expected ',', found {shown!r}", comma.span)
            return None
        self.advance()
        hi = self.parse_signed_number("an upper endpoint")
        if hi is None:
            return None
        close_tok = self.peek()
        if close_tok.kind is TokenKind.RBRACK:
            hi_closed = True
        elif close_tok.kind is TokenKind.RPAREN:
            hi_closed = False
        else:
            shown = close_tok.text or close_tok.kind.value
            self.error("P005", f"malformed interval: expected ']' or ')', found {shown!r}", close_tok.span)
            return None
        self.advance()
        interval = Interval(lo, hi, lo_closed, hi_closed)
        if interval.is_empty():
            self.error("P005", f"empty interval {interval.notation()}", open_tok.span)
            return None
        return interval

    def parse_value_band(self) -> InterpretationBand | None:
        interval = self.parse_value_interval()
        if interval is None:
            return None
        if self.expect(TokenKind.ARROW, "'->' after the band interval") is None:
            return None
        label = self.expect(TokenKind.IDENT, "a band label")
        if label is None:
            return None
        if self.expect(TokenKind.LBRACE, "'{' opening the action list") is None:
            return None
        actions: list[Action] = []
        while not self.at(TokenKind.RBRACE) and not self.at(TokenKind.EOF):
            word = self.expect(TokenKind.IDENT, "an action (log, notify or escalate)")
            if word is None:
                self.skip_to_field_boundary()
                break
            if word.text not in _ACTION_KINDS:
                self.error("P001", f"unknown action {word.text!r}", word.span)
                self.skip_to_field_boundary()
                break
            target = self.parse_action_target()
            if target is None:
                break
            actions.append(Action(_ACTION_KINDS[word.text], target))
        self.expect(TokenKind.RBRACE, "'}' closing the action list")
        return InterpretationBand(interval=interval, label=label.text, actions=tuple(actions))

    def parse_action_target(self) -> ActionTarget | None:
        tok = self.expect(TokenKind.IDENT, "a stakeholder id or owner_of(node)")
        if tok is None:
            return None
        if tok.text == "owner_of" and self.at(TokenKind.LPAREN):
            self.advance()
            ref = self.expect(TokenKind.IDENT, "a node id inside owner_of(...)")
            if ref is None:
                return None
            if self.expect(TokenKind.RPAREN, "')'") is None:
                return None
            return ActionTarget(ref=ref.text, is_owner=True)
        return ActionTarget(ref=tok.text, is_owner=False)

    def parse_value_step(self) -> StrategyStep | None:
        text = self.expect(TokenKind.STRING, "the step text")
        if text is None:
            return None
        spawns: tuple[str, ...] = ()
        if self.at(TokenKind.ARROW):
            self.advance()
            ids = self.parse_value_ident_list()
            if ids is None:
                return None
            spawns = ids
        return StrategyStep(text=text.text, spawns=spawns)

    def parse_value_expr(self) -> _expr.Expr | None:
        parsed = self.parse_expr_binary(0, 0, 0)
        return parsed[0] if parsed else None

    _PRECEDENCE = {TokenKind.PLUS: 1, TokenKind.MINUS: 1, TokenKind.STAR: 2, TokenKind.SLASH: 2}

    # The expression parsers return (expression, depth), or None after a
    # diagnostic. `above` counts the operators that will enclose the result
    # and `parens` the open parentheses, so P008 stops the descent where a
    # limit is crossed, long before Python's recursion limit.

    def too_deep(self, tok: CharToken) -> None:
        self.error("P008", f"metric function nests deeper than {MAX_EXPR_DEPTH} levels", tok.span)

    def parse_expr_binary(self, min_prec: int, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        parsed = self.parse_expr_unary(above, parens)
        if parsed is None:
            return None
        left, depth = parsed
        while True:
            op = self.peek()
            prec = self._PRECEDENCE.get(op.kind)
            if prec is None or prec < min_prec:
                return left, depth
            self.advance()
            right = self.parse_expr_binary(prec + 1, above + 1, parens)
            if right is None:
                return None
            left, depth = _expr.BinOp(op.text, left, right[0]), 1 + max(depth, right[1])
            if above + depth > MAX_EXPR_DEPTH:
                return self.too_deep(op)

    def parse_expr_unary(self, above: int, parens: int) -> tuple[_expr.Expr, int] | None:
        tok = self.peek()
        if above > MAX_EXPR_DEPTH:
            return self.too_deep(tok)
        if tok.kind is TokenKind.MINUS:
            self.advance()
            operand = self.parse_expr_unary(above + 1, parens)
            return (_expr.Neg(operand[0]), operand[1] + 1) if operand else None
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            if self.out_of_range(tok):
                return None
            return _expr.Num(tok.value), 0
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return _expr.Var(tok.text), 0
        if tok.kind is TokenKind.LPAREN:
            if parens == MAX_EXPR_DEPTH:
                return self.too_deep(tok)
            self.advance()
            inner = self.parse_expr_binary(0, above, parens + 1)
            if inner is None or self.expect(TokenKind.RPAREN, "')'") is None:
                return None
            return inner
        shown = tok.text or tok.kind.value
        self.error("P001", f"expected an expression, found {shown!r}", tok.span)
        return None

    # -- node assembly -----------------------------------------------------

    def assemble(self, kind: str, node_id: str, fields: dict):
        values = {
            _ATTRIBUTE_OF.get(name, name): tuple(value) if name in _REPEATABLE else value
            for name, value in fields.items()
        }
        return NODE_TYPES[kind](id=node_id, **values)


def parse_token_by_token(text: str, filename: str = "<string>") -> tuple[Model, list[Diagnostic]]:
    """Parse .sym source text. Returns (model, diagnostics); never raises."""
    builder = _Builder()
    diags: list[Diagnostic] = []
    stack = (os.path.abspath(filename),) if filename != "<string>" else ()
    parser = _Parser(text, filename, builder, diags, stack)
    parser.parse_model()
    return builder.build(), diags


# -- validating field by field, kind by kind --------------------------------------
# The validator the package had before V002 and V010 read the field table:
# every required field (V010) and every reference (V002) of every block kind
# is named by hand, and each rule walks its collections in sorted order. Kept
# as written (`_Checker` is `_CheckerAsWritten`, `validate` is
# `validate_as_written`); V008 calls `band_partition_problems_by_frontier`
# above.

_E = Severity.ERROR
_W = Severity.WARNING


class _CheckerAsWritten:
    def __init__(self, model: Model) -> None:
        self.model = model
        self.out: list[Diagnostic] = []

    def emit(self, code: str, severity: Severity, node_id: str | None, message: str) -> None:
        span = None
        if node_id is not None:
            owner_kind = self.model.kinds.get(node_id)
            if owner_kind is not None:
                span = self.model.spans.get(node_id)
        self.out.append(Diagnostic(code, severity, message, span, node_id))

    # -- V001 ---------------------------------------------------------------

    def check_duplicates(self) -> None:
        for node_id, span in self.model.duplicate_decls:
            first_kind = self.model.kinds.get(node_id)
            first = self.model.spans.get(node_id) if first_kind else None
            where = f" (first declared as {first_kind} at {first.location()})" if first else ""
            self.out.append(
                Diagnostic(
                    "V001",
                    _E,
                    f"duplicate identifier {node_id!r}{where}",
                    span,
                    node_id,
                )
            )

    # -- V002 ---------------------------------------------------------------

    def ref(self, node_id: str, field: str, target: str, expected_kind: str) -> bool:
        """Check one reference; emit V002 and return False when it does not resolve."""
        if not target:
            return False
        actual = self.model.kinds.get(target)
        if actual is None:
            self.emit("V002", _E, node_id, f"{field} references undeclared id {target!r}")
            return False
        if actual != expected_kind:
            self.emit(
                "V002",
                _E,
                node_id,
                f"{field} references {target!r} which is a {actual}, not a {expected_kind}",
            )
            return False
        return True

    def check_references(self) -> None:
        model = self.model
        for bo_id, bo in sorted(model.objectives.items()):
            if bo.refines:
                self.ref(bo_id, "refines", bo.refines, "objective")
            for dep in bo.depends_on:
                self.ref(bo_id, "depends_on", dep, "objective")
            for aff in bo.affects:
                self.ref(bo_id, "affects", aff, "objective")
            for sid in bo.viewpoint:
                self.ref(bo_id, "viewpoint", sid, "stakeholder")
            if bo.scope is not None and bo.scope.universe:
                if self.ref(bo_id, "scope", bo.scope.universe, "universe"):
                    universe = model.universes[bo.scope.universe]
                    for facet in bo.scope.selection or ():
                        if facet not in universe.facets:
                            self.emit(
                                "V002",
                                _E,
                                bo_id,
                                f"scope facet {facet!r} is not declared in universe {universe.id!r}",
                            )
        for st_id, st in sorted(model.strategies.items()):
            if st.for_objective:
                self.ref(st_id, "for", st.for_objective, "objective")
            for step in st.steps:
                for spawned in step.spawns:
                    if not self.ref(st_id, "step", spawned, "objective"):
                        continue
                    child = model.objectives[spawned]
                    if child.refines != st.for_objective:
                        self.emit(
                            "V002",
                            _E,
                            st_id,
                            f"step spawns {spawned!r} whose refines is not {st.for_objective!r}",
                        )
        for mg_id, mg in sorted(model.goals.items()):
            for sid in mg.viewpoint:
                self.ref(mg_id, "viewpoint", sid, "stakeholder")
            for bo_id in mg.measures:
                self.ref(mg_id, "measures", bo_id, "objective")
            for other in mg.related:
                self.ref(mg_id, "related", other, "goal")
        for q_id, q in sorted(model.questions.items()):
            if q.goal:
                self.ref(q_id, "goal", q.goal, "goal")
        for m_id, metric in sorted(model.metrics.items()):
            if metric.goal:
                self.ref(m_id, "goal", metric.goal, "goal")
            for q_id in metric.answers:
                self.ref(m_id, "answers", q_id, "question")
            for b_id in metric.uses:
                self.ref(m_id, "uses", b_id, "base")
            for sid in metric.stakeholders:
                self.ref(m_id, "stakeholders", sid, "stakeholder")
            for band in metric.bands:
                for action in band.actions:
                    target = action.target
                    if not target.ref:
                        continue
                    if target.is_owner:
                        owner_kind = model.kinds.get(target.ref)
                        if owner_kind is None:
                            self.emit(
                                "V002",
                                _E,
                                m_id,
                                f"action owner_of references undeclared id {target.ref!r}",
                            )
                        elif owner_kind not in ("objective", "goal", "metric"):
                            self.emit(
                                "V002",
                                _E,
                                m_id,
                                f"owner_of target {target.ref!r} must be an objective, goal or metric (got {owner_kind})",
                            )
                    else:
                        self.ref(m_id, "action", target.ref, "stakeholder")

    # -- V003 ---------------------------------------------------------------

    def check_refines_cycles(self) -> None:
        objectives = self.model.objectives
        consumed: set[str] = set()
        for start in sorted(objectives):
            if start in consumed:
                continue
            node: str | None = start
            path: list[str] = []
            index: dict[str, int] = {}
            while node is not None and node in objectives and node not in consumed:
                if node in index:
                    cycle = path[index[node]:]
                    anchor = min(cycle)
                    offset = cycle.index(anchor)
                    rotated = cycle[offset:] + cycle[:offset] + [anchor]
                    self.emit(
                        "V003",
                        _E,
                        anchor,
                        "refines cycle: " + " -> ".join(rotated),
                    )
                    break
                index[node] = len(path)
                path.append(node)
                node = objectives[node].refines
            consumed.update(path)

    # -- V004 / V005 / V006 ---------------------------------------------------

    def check_coverage(self) -> None:
        model = self.model
        measured = {bo_id for mg in model.goals.values() for bo_id in mg.measures}
        parents = {bo.refines for bo in model.objectives.values() if bo.refines}
        for bo_id in sorted(model.objectives):
            if bo_id not in parents and bo_id not in measured:
                self.emit(
                    "V004",
                    _W,
                    bo_id,
                    f"leaf objective {bo_id!r} is not measured by any measurement goal",
                )
        asked = {q.goal for q in model.questions.values()}
        for mg_id in sorted(model.goals):
            if mg_id not in asked:
                self.emit("V005", _W, mg_id, f"measurement goal {mg_id!r} has no question")
        cited: set[str] = set()
        for metric in model.metrics.values():
            cited.update(metric.answers)
        for q_id, q in sorted(model.questions.items()):
            answered = q.status.value == "answered"
            if answered and q_id not in cited:
                self.emit(
                    "V006",
                    _W,
                    q_id,
                    f"question {q_id!r} is marked answered but no metric cites it",
                )
            elif not answered and q_id in cited:
                self.emit(
                    "V006",
                    _W,
                    q_id,
                    f"question {q_id!r} is cited by a metric but still marked open",
                )

    # -- V007 ---------------------------------------------------------------

    def check_function_bases(self) -> None:
        for m_id, metric in sorted(self.model.metrics.items()):
            if metric.function is None:
                continue
            declared = set(metric.uses)
            for name in sorted(_expr.variables(metric.function)):
                if name not in declared:
                    self.emit(
                        "V007",
                        _E,
                        m_id,
                        f"function references base measurement {name!r} not listed in uses",
                    )

    # -- V008 ---------------------------------------------------------------

    def check_bands(self) -> None:
        for m_id, metric in sorted(self.model.metrics.items()):
            if not metric.bands:
                continue
            for problem in band_partition_problems_by_frontier(metric):
                self.emit("V008", _E, m_id, problem)

    # -- V009 ---------------------------------------------------------------

    def check_scope_coverage(self) -> None:
        model = self.model
        objectives = sorted(model.objectives.items())
        children_of: dict[str, list[BusinessObjective]] = {}
        for _, bo in objectives:
            children_of.setdefault(bo.refines, []).append(bo)
        for bo_id, bo in objectives:
            children = children_of.get(bo_id)
            if not children or bo.scope is None:
                continue
            universe = model.universes.get(bo.scope.universe)
            if universe is None:
                continue
            if any(
                child.scope is None or child.scope.universe != bo.scope.universe
                for child in children
            ):
                continue  # mixed-universe refinements are out of scope for this rule
            parent_facets = set(bo.scope.selected_facets(universe))
            child_union: set[str] = set()
            for child in children:
                child_union.update(child.scope.selected_facets(universe))
            missing = [
                facet
                for facet in universe.facets
                if facet in parent_facets and facet not in child_union
            ]
            if missing:
                self.emit(
                    "V009",
                    _W,
                    bo_id,
                    f"children of {bo_id!r} cover only part of scope universe "
                    f"{universe.id!r}: missing facets {', '.join(missing)}",
                )

    # -- V010 / V011 ----------------------------------------------------------

    def req(self, node_id: str, kind: str, field: str, ok: bool) -> None:
        if not ok:
            self.emit("V010", _E, node_id, f"{kind} {node_id!r} is missing required field {field!r}")

    def check_required_fields(self) -> None:
        model = self.model
        for sid, stakeholder in sorted(model.stakeholders.items()):
            self.req(sid, "stakeholder", "name", bool(stakeholder.name))
        for uid, universe in sorted(model.universes.items()):
            self.req(uid, "universe", "facets", bool(universe.facets))
        for bo_id, bo in sorted(model.objectives.items()):
            self.req(bo_id, "objective", "object", bool(bo.object))
            self.req(bo_id, "objective", "scope", bo.scope is not None)
            self.req(bo_id, "objective", "purpose", bool(bo.purpose))
            self.req(bo_id, "objective", "viewpoint", bool(bo.viewpoint))
            self.req(bo_id, "objective", "context", bool(bo.context))
            if bo.priority is not None:
                if bo.priority < 1:
                    self.emit("V010", _E, bo_id, f"objective {bo_id!r} priority must be a positive integer")
                self.req(
                    bo_id, "objective", "priority_justification", bool(bo.priority_justification)
                )
        for st_id, st in sorted(model.strategies.items()):
            self.req(st_id, "strategy", "for", bool(st.for_objective))
            self.req(st_id, "strategy", "step", bool(st.steps))
            self.req(st_id, "strategy", "justification", bool(st.justification))
        for mg_id, mg in sorted(model.goals.items()):
            self.req(mg_id, "goal", "object", bool(mg.object))
            self.req(mg_id, "goal", "purpose", bool(mg.purpose))
            self.req(mg_id, "goal", "focus", bool(mg.focus))
            self.req(mg_id, "goal", "scope", bool(mg.scope))
            self.req(mg_id, "goal", "criteria", bool(mg.criteria))
            self.req(mg_id, "goal", "context", bool(mg.context))
            self.req(mg_id, "goal", "measures", bool(mg.measures))
            if not mg.viewpoint:
                self.emit("V011", _W, mg_id, f"measurement goal {mg_id!r} has an empty viewpoint list")
        for q_id, q in sorted(model.questions.items()):
            self.req(q_id, "question", "goal", bool(q.goal))
            self.req(q_id, "question", "text", bool(q.text))
        for b_id, base in sorted(model.bases.items()):
            self.req(b_id, "base", "description", bool(base.description))
            if base.mode is SourceMode.COUNT:
                self.req(b_id, "base", "where", bool(base.filters))
            else:
                self.req(b_id, "base", "aggregation", base.aggregation is not None)
        for m_id, metric in sorted(model.metrics.items()):
            self.req(m_id, "metric", "description", bool(metric.description))
            self.req(m_id, "metric", "goal", bool(metric.goal))
            self.req(m_id, "metric", "answers", bool(metric.answers))
            self.req(m_id, "metric", "uses", bool(metric.uses))
            self.req(m_id, "metric", "method", bool(metric.method))
            self.req(m_id, "metric", "function", metric.function is not None)
            self.req(m_id, "metric", "band", bool(metric.bands))
            self.req(m_id, "metric", "schedule", metric.schedule is not None)
            if metric.schedule is not None:
                if metric.schedule.reporting.ordinal < metric.schedule.collection.ordinal:
                    self.emit(
                        "V010",
                        _E,
                        m_id,
                        f"metric {m_id!r} schedule reports ({metric.schedule.reporting.value}) "
                        f"more often than it collects ({metric.schedule.collection.value})",
                    )
            if not metric.stakeholders:
                self.emit("V011", _W, m_id, f"metric {m_id!r} has an empty stakeholder list")

    # -- V012 ---------------------------------------------------------------

    def check_answer_goal_membership(self) -> None:
        model = self.model
        for m_id, metric in sorted(model.metrics.items()):
            if metric.goal not in model.goals:
                continue
            for q_id in metric.answers:
                question = model.questions.get(q_id)
                if question is not None and question.goal != metric.goal:
                    self.emit(
                        "V012",
                        _E,
                        m_id,
                        f"metric {m_id!r} answers {q_id!r} which belongs to goal "
                        f"{question.goal!r}, not {metric.goal!r}",
                    )

    # -- V013 ---------------------------------------------------------------

    def check_reciprocal_links(self) -> None:
        model = self.model
        for bo_id, bo in sorted(model.objectives.items()):
            for aff in bo.affects:
                target = model.objectives.get(aff)
                if target is not None and bo_id not in target.depends_on:
                    self.emit(
                        "V013",
                        _W,
                        bo_id,
                        f"{bo_id!r} affects {aff!r} but {aff!r} does not declare depends_on {bo_id!r}",
                    )


def validate_as_written(model: Model) -> list[Diagnostic]:
    """Run every rule; returns diagnostics in deterministic order."""
    checker = _CheckerAsWritten(model)
    checker.check_duplicates()
    checker.check_references()
    checker.check_refines_cycles()
    checker.check_coverage()
    checker.check_function_bases()
    checker.check_bands()
    checker.check_scope_coverage()
    checker.check_required_fields()
    checker.check_answer_goal_membership()
    checker.check_reciprocal_links()
    return sorted(checker.out, key=sort_key)


# -- indented JSON payloads ---------------------------------------------------------


def payload_as_stdlib(obj) -> str:
    """The text `payload.dumps` must return: the standard library's own indented, key-sorted JSON."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- quoting a string by one translate table -----------------------------------------

_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})


def quote_by_translate(text: str) -> str:
    """The quoted form `serializer._quote` must return: every escape in one dict-table translate."""
    return '"' + text.translate(_STRING_ESCAPES) + '"'

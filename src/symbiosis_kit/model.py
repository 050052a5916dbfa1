"""Domain model for .sym measurement programs.

A model holds stakeholders, scope universes, business objectives, strategies,
measurement goals, questions, base measurement definitions and metrics, each
keyed by identifier. Nodes are immutable; the validator reports invariant
violations instead of constructors raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import cached_property

from . import expr as _expr
from .diagnostics import SourceSpan

KIND_STAKEHOLDER = "stakeholder"
KIND_UNIVERSE = "universe"
KIND_OBJECTIVE = "objective"
KIND_STRATEGY = "strategy"
KIND_GOAL = "goal"
KIND_QUESTION = "question"
KIND_BASE = "base"
KIND_METRIC = "metric"


class Granularity(Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"
    QUARTERLY = "quarterly"
    YEARLY = "yearly"

    @property
    def ordinal(self) -> int:
        return _GRANULARITY_ORDER[self]


_GRANULARITY_ORDER = {
    Granularity.DAILY: 0,
    Granularity.WEEKLY: 1,
    Granularity.MONTHLY: 2,
    Granularity.QUARTERLY: 3,
    Granularity.YEARLY: 4,
}


@dataclass(frozen=True, slots=True)
class Stakeholder:
    id: str
    name: str = ""
    role: str = ""

    def to_canonical(self) -> dict:
        return {"id": self.id, "name": self.name, "role": self.role}


@dataclass(frozen=True, slots=True)
class ScopeUniverse:
    """A named measurement universe with an ordered set of facets."""

    id: str
    facets: tuple[str, ...] = ()

    def to_canonical(self) -> dict:
        return {"id": self.id, "facets": list(self.facets)}


@dataclass(frozen=True, slots=True)
class ScopeRef:
    """Reference to a universe slice: all facets (selection None) or a subset."""

    universe: str
    selection: tuple[str, ...] | None = None  # None means ALL
    description: str | None = None

    def selected_facets(self, universe: ScopeUniverse) -> tuple[str, ...]:
        if self.selection is None:
            return universe.facets
        return self.selection

    def to_canonical(self) -> dict:
        return {
            "universe": self.universe,
            "selection": "ALL" if self.selection is None else list(self.selection),
            "description": self.description,
        }


@dataclass(frozen=True, slots=True)
class BusinessObjective:
    id: str
    object: str = ""
    scope: ScopeRef | None = None
    purpose: str = ""
    viewpoint: tuple[str, ...] = ()
    context: str = ""
    refines: str | None = None
    depends_on: tuple[str, ...] = ()
    affects: tuple[str, ...] = ()
    priority: int | None = None
    priority_justification: str = ""

    def to_canonical(self) -> dict:
        return {
            "id": self.id,
            "object": self.object,
            "scope": self.scope.to_canonical() if self.scope else None,
            "purpose": self.purpose,
            "viewpoint": list(self.viewpoint),
            "context": self.context,
            "refines": self.refines,
            "depends_on": list(self.depends_on),
            "affects": list(self.affects),
            "priority": self.priority,
            "priority_justification": self.priority_justification,
        }


@dataclass(frozen=True, slots=True)
class StrategyStep:
    text: str
    spawns: tuple[str, ...] = ()

    def to_canonical(self) -> dict:
        return {"text": self.text, "spawns": list(self.spawns)}


@dataclass(frozen=True, slots=True)
class Strategy:
    id: str
    for_objective: str = ""
    steps: tuple[StrategyStep, ...] = ()
    justification: str = ""

    def to_canonical(self) -> dict:
        return {
            "id": self.id,
            "for": self.for_objective,
            "steps": [s.to_canonical() for s in self.steps],
            "justification": self.justification,
        }


@dataclass(frozen=True, slots=True)
class MeasurementGoal:
    id: str
    object: str = ""
    purpose: str = ""
    focus: str = ""
    scope: str = ""
    criteria: tuple[str, ...] = ()
    viewpoint: tuple[str, ...] = ()
    context: str = ""
    measures: tuple[str, ...] = ()
    related: tuple[str, ...] = ()

    def to_canonical(self) -> dict:
        return {
            "id": self.id,
            "object": self.object,
            "purpose": self.purpose,
            "focus": self.focus,
            "scope": self.scope,
            "criteria": list(self.criteria),
            "viewpoint": list(self.viewpoint),
            "context": self.context,
            "measures": list(self.measures),
            "related": list(self.related),
        }


class QuestionStatus(Enum):
    OPEN = "open"
    ANSWERED = "answered"


@dataclass(frozen=True, slots=True)
class MeasurementQuestion:
    id: str
    goal: str = ""
    text: str = ""
    status: QuestionStatus = QuestionStatus.OPEN

    def to_canonical(self) -> dict:
        return {
            "id": self.id,
            "goal": self.goal,
            "text": self.text,
            "status": self.status.value,
        }


class SourceMode(Enum):
    COUNT = "count"
    DIRECT = "direct"


class Aggregation(Enum):
    SUM = "sum"
    LATEST = "latest"


@dataclass(frozen=True, slots=True)
class BaseMeasurementDef:
    id: str
    description: str = ""
    mode: SourceMode = SourceMode.DIRECT
    filters: tuple[tuple[str, str], ...] = ()  # COUNT: conjunction of field == value
    aggregation: Aggregation | None = None  # DIRECT only

    def to_canonical(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "mode": self.mode.value,
            "filters": [list(f) for f in self.filters],
            "aggregation": self.aggregation.value if self.aggregation else None,
        }


@dataclass(frozen=True, slots=True)
class Interval:
    """Numeric interval with independent endpoint closedness."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo or (self.lo == other.lo and not self.lo_closed):
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = other.lo, other.lo_closed
        if self.hi < other.hi or (self.hi == other.hi and not self.hi_closed):
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = other.hi, other.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)

    def notation(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{_expr.format_number(self.lo)}, {_expr.format_number(self.hi)}{right}"

    def to_canonical(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


DEFAULT_DOMAIN = Interval(0.0, 100.0, True, True)


class ActionKind(Enum):
    LOG = "log"
    NOTIFY = "notify"
    ESCALATE = "escalate"

    @property
    def urgency(self) -> int:
        return {"log": 0, "notify": 1, "escalate": 2}[self.value]


@dataclass(frozen=True, slots=True)
class ActionTarget:
    """Either a stakeholder id, or owner_of(node) resolved at routing time."""

    ref: str
    is_owner: bool = False

    def to_canonical(self) -> dict:
        return {"ref": self.ref, "owner": self.is_owner}

    def notation(self) -> str:
        return f"owner_of({self.ref})" if self.is_owner else self.ref


@dataclass(frozen=True, slots=True)
class Action:
    kind: ActionKind
    target: ActionTarget

    def to_canonical(self) -> dict:
        return {"kind": self.kind.value, "target": self.target.to_canonical()}


@dataclass(frozen=True, slots=True)
class InterpretationBand:
    interval: Interval
    label: str
    actions: tuple[Action, ...] = ()

    def to_canonical(self) -> dict:
        return {
            "interval": self.interval.to_canonical(),
            "label": self.label,
            "actions": [a.to_canonical() for a in self.actions],
        }


@dataclass(frozen=True, slots=True)
class ReportingSchedule:
    collection: Granularity
    reporting: Granularity

    def notation(self) -> str:
        return f"{self.collection.value} / {self.reporting.value}"

    def to_canonical(self) -> dict:
        return {"collection": self.collection.value, "reporting": self.reporting.value}


@dataclass(frozen=True, slots=True)
class MetricDef:
    id: str
    description: str = ""
    goal: str = ""
    answers: tuple[str, ...] = ()
    uses: tuple[str, ...] = ()
    method: str = ""
    function: _expr.Expr | None = None
    bands: tuple[InterpretationBand, ...] = ()
    schedule: ReportingSchedule | None = None
    stakeholders: tuple[str, ...] = ()
    domain: Interval | None = None
    created: date | None = None
    modified: date | None = None
    reviewed: date | None = None

    def effective_domain(self) -> Interval:
        return self.domain if self.domain is not None else DEFAULT_DOMAIN

    def bands_by_position(self) -> tuple[InterpretationBand, ...]:
        """Bands ordered by interval position (ascending lower endpoint)."""
        return tuple(
            sorted(self.bands, key=lambda b: (b.interval.lo, not b.interval.lo_closed))
        )

    def to_canonical(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "goal": self.goal,
            "answers": list(self.answers),
            "uses": list(self.uses),
            "method": self.method,
            "function": _expr.to_text(self.function) if self.function else None,
            "bands": [b.to_canonical() for b in self.bands],
            "schedule": self.schedule.to_canonical() if self.schedule else None,
            "stakeholders": list(self.stakeholders),
            "domain": self.domain.to_canonical() if self.domain else None,
            "created": self.created.isoformat() if self.created else None,
            "modified": self.modified.isoformat() if self.modified else None,
            "reviewed": self.reviewed.isoformat() if self.reviewed else None,
        }


# Node class by kind, in the fixed serialization / iteration order of kinds.
NODE_TYPES = {
    KIND_UNIVERSE: ScopeUniverse,
    KIND_STAKEHOLDER: Stakeholder,
    KIND_OBJECTIVE: BusinessObjective,
    KIND_STRATEGY: Strategy,
    KIND_GOAL: MeasurementGoal,
    KIND_QUESTION: MeasurementQuestion,
    KIND_BASE: BaseMeasurementDef,
    KIND_METRIC: MetricDef,
}
NODE_KINDS = tuple(NODE_TYPES)


@dataclass(frozen=True)
class Model:
    """All declarations of one measurement program, keyed by identifier."""

    stakeholders: dict[str, Stakeholder] = field(default_factory=dict)
    universes: dict[str, ScopeUniverse] = field(default_factory=dict)
    objectives: dict[str, BusinessObjective] = field(default_factory=dict)
    strategies: dict[str, Strategy] = field(default_factory=dict)
    goals: dict[str, MeasurementGoal] = field(default_factory=dict)
    questions: dict[str, MeasurementQuestion] = field(default_factory=dict)
    bases: dict[str, BaseMeasurementDef] = field(default_factory=dict)
    metrics: dict[str, MetricDef] = field(default_factory=dict)
    # Plumbing: declaration spans keyed by (kind, id), plus re-declarations the
    # parser dropped (kind, id, span) so the validator can report V001.
    spans: dict[tuple[str, str], SourceSpan] = field(default_factory=dict)
    duplicate_decls: tuple[tuple[str, str, SourceSpan], ...] = ()

    def collection(self, kind: str) -> dict:
        return {
            KIND_STAKEHOLDER: self.stakeholders,
            KIND_UNIVERSE: self.universes,
            KIND_OBJECTIVE: self.objectives,
            KIND_STRATEGY: self.strategies,
            KIND_GOAL: self.goals,
            KIND_QUESTION: self.questions,
            KIND_BASE: self.bases,
            KIND_METRIC: self.metrics,
        }[kind]

    @cached_property
    def kinds(self) -> dict[str, str]:
        """Node id -> kind; an id in two collections keeps its first kind in NODE_KINDS order."""
        kinds: dict[str, str] = {}
        for kind in NODE_KINDS:
            for node_id in self.collection(kind):
                kinds.setdefault(node_id, kind)
        return kinds

    def kind_of(self, node_id: str) -> str | None:
        return self.kinds.get(node_id)

    def span_of(self, kind: str, node_id: str) -> SourceSpan | None:
        return self.spans.get((kind, node_id))


def model_to_canonical(model: Model) -> dict:
    out: dict = {}
    for kind in NODE_KINDS:
        coll = model.collection(kind)
        out[kind + "s"] = {
            node_id: node.to_canonical() for node_id, node in sorted(coll.items())
        }
    return out


def canonical_dump(model: Model) -> str:
    """Deterministic JSON rendering of the model's semantic content.

    Excludes source spans; equal dumps mean semantically identical models.
    """
    return json.dumps(model_to_canonical(model), indent=2, sort_keys=True) + "\n"

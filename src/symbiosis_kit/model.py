"""Domain model for .sym measurement programs.

A model holds stakeholders, scope universes, business objectives, strategies,
measurement goals, questions, base measurement definitions and metrics, each
keyed by identifier. Nodes and values are immutable `NamedTuple` records; the
validator reports invariant violations instead of constructors raising.
"""

from datetime import date
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

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

    def __init__(self, value: str) -> None:
        self.ordinal = len(type(self).__members__)  # declaration order: finest (daily) is 0


class Stakeholder(NamedTuple):
    id: str
    name: str = ""
    role: str = ""


class ScopeUniverse(NamedTuple):
    """A named measurement universe with an ordered set of facets."""

    id: str
    facets: tuple[str, ...] = ()


class ScopeRef(NamedTuple):
    """Reference to a universe slice: all facets (selection None) or a subset."""

    universe: str
    selection: tuple[str, ...] | None = None  # None means ALL
    description: str | None = None

    def selected_facets(self, universe: ScopeUniverse) -> tuple[str, ...]:
        if self.selection is None:
            return universe.facets
        return self.selection


class BusinessObjective(NamedTuple):
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


class StrategyStep(NamedTuple):
    text: str
    spawns: tuple[str, ...] = ()


class Strategy(NamedTuple):
    id: str
    for_objective: str = ""
    steps: tuple[StrategyStep, ...] = ()
    justification: str = ""


class MeasurementGoal(NamedTuple):
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


class QuestionStatus(Enum):
    OPEN = "open"
    ANSWERED = "answered"


class MeasurementQuestion(NamedTuple):
    id: str
    goal: str = ""
    text: str = ""
    status: QuestionStatus = QuestionStatus.OPEN


class SourceMode(Enum):
    COUNT = "count"
    DIRECT = "direct"


class Aggregation(Enum):
    SUM = "sum"
    LATEST = "latest"


class BaseMeasurementDef(NamedTuple):
    id: str
    description: str = ""
    mode: SourceMode = SourceMode.DIRECT
    filters: tuple[tuple[str, str], ...] = ()  # COUNT: conjunction of field == value
    aggregation: Aggregation | None = None  # DIRECT only


class Interval(NamedTuple):
    """Numeric interval with independent endpoint closedness.

    Its endpoints are cuts, `start()` and `end()`: the cut `(v, False)` lies
    just before `v` and `(v, True)` just after it, so cuts compare as tuples
    in the order of the line. `between` builds the interval between two cuts.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def start(self) -> tuple[float, bool]:
        return (self.lo, not self.lo_closed)

    def end(self) -> tuple[float, bool]:
        return (self.hi, self.hi_closed)

    def is_empty(self) -> bool:
        return self.start() >= self.end()

    def contains(self, x: float) -> bool:
        return self.start() <= (x, False) and (x, True) <= self.end()

    def intersect(self, other: "Interval") -> "Interval":
        return between(max(self.start(), other.start()), min(self.end(), other.end()))

    def notation(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{_expr.format_number(self.lo)}, {_expr.format_number(self.hi)}{right}"


def between(start: tuple[float, bool], end: tuple[float, bool]) -> Interval:
    """The interval from cut `start` to cut `end`."""
    return Interval(start[0], end[0], not start[1], end[1])


DEFAULT_DOMAIN = Interval(0.0, 100.0, True, True)


class ActionKind(Enum):
    LOG = "log"
    NOTIFY = "notify"
    ESCALATE = "escalate"

    def __init__(self, value: str) -> None:
        self.urgency = len(type(self).__members__)  # declaration order: least urgent (log) is 0


class ActionTarget(NamedTuple):
    """Either a stakeholder id, or owner_of(node) resolved at routing time."""

    ref: str
    is_owner: bool = False


    def notation(self) -> str:
        return f"owner_of({self.ref})" if self.is_owner else self.ref


class Action(NamedTuple):
    kind: ActionKind
    target: ActionTarget


class InterpretationBand(NamedTuple):
    interval: Interval
    label: str
    actions: tuple[Action, ...] = ()


class ReportingSchedule(NamedTuple):
    collection: Granularity
    reporting: Granularity

    def notation(self) -> str:
        return f"{self.collection.value} / {self.reporting.value}"

    def runs_at(self, granularity: Granularity) -> bool:
        """Whether a period of this granularity is one the metric is collected or reported on."""
        return granularity in (self.collection, self.reporting)


class MetricDef(NamedTuple):
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
        return tuple(sorted(self.bands, key=lambda b: b.interval.start()))


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

# The Model attribute that holds each kind's nodes: the kind's plural.
COLLECTIONS = {kind: kind[:-1] + "ies" if kind.endswith("y") else kind + "s" for kind in NODE_TYPES}


class _ModelFields(NamedTuple):
    stakeholders: dict[str, Stakeholder] = {}
    universes: dict[str, ScopeUniverse] = {}
    objectives: dict[str, BusinessObjective] = {}
    strategies: dict[str, Strategy] = {}
    goals: dict[str, MeasurementGoal] = {}
    questions: dict[str, MeasurementQuestion] = {}
    bases: dict[str, BaseMeasurementDef] = {}
    metrics: dict[str, MetricDef] = {}
    # Plumbing: each declaration's span by its id, the re-declarations the
    # parser dropped as (id, span) so the validator can report V001, and
    # the real paths of the files that include lines spliced in, sorted.
    spans: dict[str, SourceSpan] = {}
    duplicate_decls: tuple[tuple[str, SourceSpan], ...] = ()
    included: tuple[str, ...] = ()


class UnresolvedTarget(ValueError):
    """An action target that names no stakeholders; its text is the target's V002 message."""


class Model(_ModelFields):
    """All declarations of one measurement program, keyed by identifier.

    A dict left at its default is one empty dict shared by every model that
    leaves it so; nothing mutates a model's dicts once the parser built them.
    """

    def collection(self, kind: str) -> dict:
        """The nodes of one kind by id."""
        return getattr(self, COLLECTIONS[kind])

    @cached_property
    def kinds(self) -> dict[str, str]:
        """Node id -> kind; an id in two collections keeps its first kind in NODE_KINDS order."""
        kinds: dict[str, str] = {}
        for kind in NODE_KINDS:
            for node_id in self.collection(kind):
                kinds.setdefault(node_id, kind)
        return kinds

    def misreference(self, field: str, target: str, kind: str) -> str | None:
        """V002's text for a `field` naming `target` when it is not a node of `kind`; else None."""
        actual = self.kinds.get(target)
        if actual is None:
            return f"{field} references undeclared id {target!r}"
        if actual != kind:
            return f"{field} references {target!r} which is a {actual}, not a {kind}"
        return None

    def stakeholders_of(self, target: ActionTarget) -> tuple[str, ...]:
        """The stakeholder an action target names, or the `OWNERS` of the node its
        `owner_of` names; UnresolvedTarget, with V002's text, when it reaches neither."""
        if not target.is_owner:
            if problem := self.misreference("action", target.ref, KIND_STAKEHOLDER):
                raise UnresolvedTarget(problem)
            return (target.ref,)
        kind = self.kinds.get(target.ref)
        if kind is None:
            raise UnresolvedTarget(f"action owner_of references undeclared id {target.ref!r}")
        if kind not in OWNERS:
            raise UnresolvedTarget(f"owner_of target {target.ref!r} must be an objective, goal or metric (got {kind})")
        return getattr(self.collection(kind)[target.ref], OWNERS[kind])


class Field(NamedTuple):
    """One row of a block kind's field table."""

    name: str  # as written in a .sym block
    attribute: str  # the node attribute it fills
    key: str  # its key in the node's JSON form
    value_kind: str  # names the reader, the printer and the JSON form of its value
    always: bool  # printed even when it holds its node type's default
    required: bool  # empty is V010
    target: str | None  # the kind of node each id it names must be (V002)
    edge: str | None  # the `graph.EdgeKind` value of the edge to each id it names

    @property
    def repeated(self) -> bool:
        """A repeated field may occur many times; its attribute is a tuple of items."""
        return self.value_kind in REPEATED_KINDS


REPEATED_KINDS = frozenset({"step", "band"})

# The ids a referencing field's value names, by value kind; a repeated
# field's value is its whole tuple of items.
REFERENCED = {
    "ident": lambda ident: (ident,),
    "ident_list": lambda idents: idents,
    "scope": lambda scope: (scope.universe,),
    "step": lambda steps: [spawned for step in steps for spawned in step.spawns],
}

# The enum whose member values are the words a word-valued field accepts, by value kind.
WORD_KINDS = {"status": QuestionStatus, "mode": SourceMode, "aggregation": Aggregation}


def _row(
    name: str,
    value_kind: str,
    always: bool = False,
    attribute: str = "",
    key: str = "",
    required: bool = False,
    target: str | None = None,
    edge: str | None = None,
) -> Field:
    attribute = attribute or name
    return Field(name, attribute, key or attribute, value_kind, always, required, target, edge)


# The fields of each block kind, in the order `serialize` prints them. The
# parser reads a field with `parse_value_<value kind>`, or as a member of its
# enum in `WORD_KINDS`; the serializer prints it with its value kind's
# printer, and `node_json` gives `impact.diff` and `canonical_dump` its JSON
# form. Only rows whose default can be written are always printed: an empty
# identifier or list cannot. The validator reports a required field left
# empty (V010) and an id named by a field with a target that is not a node of
# that kind (V002): a scope names a universe, and a step the objectives it
# spawns. `build_graph` makes an edge of the row's `edge` kind from the node
# to each id a row with an edge names.
FIELDS: dict[str, tuple[Field, ...]] = {
    KIND_UNIVERSE: (_row("facets", "ident_list", required=True),),
    KIND_STAKEHOLDER: (_row("name", "str", always=True, required=True), _row("role", "str")),
    KIND_OBJECTIVE: (
        _row("refines", "ident", target=KIND_OBJECTIVE, edge="refines"),
        _row("object", "str", always=True, required=True),
        _row("scope", "scope", required=True, target=KIND_UNIVERSE),
        _row("purpose", "str", always=True, required=True),
        _row("viewpoint", "ident_list", required=True, target=KIND_STAKEHOLDER),
        _row("context", "str", always=True, required=True),
        _row("depends_on", "ident_list", target=KIND_OBJECTIVE, edge="depends_on"),
        _row("affects", "ident_list", target=KIND_OBJECTIVE, edge="affects"),
        _row("priority", "int"),
        _row("priority_justification", "str"),
    ),
    KIND_STRATEGY: (
        _row(
            "for", "ident", attribute="for_objective", key="for", required=True, target=KIND_OBJECTIVE,
            edge="strategy_of",
        ),
        _row("step", "step", attribute="steps", required=True, target=KIND_OBJECTIVE),
        _row("justification", "str", always=True, required=True),
    ),
    KIND_GOAL: (
        _row("object", "str", always=True, required=True),
        _row("purpose", "str", always=True, required=True),
        _row("focus", "str", always=True, required=True),
        _row("scope", "str", always=True, required=True),
        _row("criteria", "str_list", required=True),
        _row("viewpoint", "ident_list", target=KIND_STAKEHOLDER),
        _row("context", "str", always=True, required=True),
        _row("measures", "ident_list", required=True, target=KIND_OBJECTIVE, edge="measures"),
        _row("related", "ident_list", target=KIND_GOAL),
    ),
    KIND_QUESTION: (
        _row("goal", "ident", required=True, target=KIND_GOAL, edge="asks"),
        _row("text", "str", always=True, required=True),
        _row("status", "status"),
    ),
    KIND_BASE: (
        _row("description", "str", always=True, required=True),
        _row("mode", "mode", always=True),
        _row("where", "filters", attribute="filters"),
        _row("aggregation", "aggregation"),
    ),
    KIND_METRIC: (
        _row("description", "str", always=True, required=True),
        _row("created", "date"),
        _row("modified", "date"),
        _row("reviewed", "date"),
        _row("goal", "ident", required=True, target=KIND_GOAL),
        _row("answers", "ident_list", required=True, target=KIND_QUESTION, edge="answers"),
        _row("uses", "ident_list", required=True, target=KIND_BASE, edge="uses"),
        _row("method", "str", always=True, required=True),
        _row("function", "expr", required=True),
        _row("domain", "interval"),
        _row("band", "band", attribute="bands", required=True),
        _row("schedule", "schedule", required=True),
        _row("stakeholders", "ident_list", target=KIND_STAKEHOLDER),
    ),
}

# The kinds an `owner_of(id)` action target may name, each with the attribute
# that holds its owners: the one field of the kind that names stakeholders.
OWNERS = {kind: f.attribute for kind, fields in FIELDS.items() for f in fields if f.target == KIND_STAKEHOLDER}


def _same(value):
    return value


# The JSON form of one value (one item, for a repeated field) by value kind.
_JSON_FORMS = {
    "str": _same,
    "ident": _same,
    "ident_list": list,
    "str_list": list,
    "int": _same,
    "date": date.isoformat,
    "scope": lambda ref: {
        "universe": ref.universe,
        "selection": "ALL" if ref.selection is None else list(ref.selection),
        "description": ref.description,
    },
    "step": lambda step: {"text": step.text, "spawns": list(step.spawns)},
    **dict.fromkeys(WORD_KINDS, attrgetter("value")),
    "filters": lambda filters: [list(f) for f in filters],
    "expr": _expr.to_text,
    "interval": Interval._asdict,  # lo, hi, lo_closed, hi_closed
    "band": lambda band: {
        "interval": band.interval._asdict(),
        "label": band.label,
        "actions": [
            {"kind": a.kind.value, "target": {"ref": a.target.ref, "owner": a.target.is_owner}}
            for a in band.actions
        ],
    },
    "schedule": lambda s: {"collection": s.collection.value, "reporting": s.reporting.value},
}


def node_json(kind: str, node) -> dict:
    """A node's JSON form: its id, and one key per row of its kind's field table.

    A field left unset (None) is null; a repeated field is a list of items.
    """
    out = {"id": node.id}
    for f in FIELDS[kind]:
        value = getattr(node, f.attribute)
        form = _JSON_FORMS[f.value_kind]
        if f.repeated:
            out[f.key] = [form(item) for item in value]
        else:
            out[f.key] = None if value is None else form(value)
    return out


def canonical_dump(model: Model) -> str:
    """Deterministic JSON rendering of the model's semantic content.

    Excludes source spans; equal dumps mean semantically identical models.
    """
    from .payload import dumps

    out = {  # keyed by kind + "s" ("strategys"), as the dump has always been
        kind + "s": {node_id: node_json(kind, node) for node_id, node in model.collection(kind).items()}
        for kind in NODE_KINDS
    }
    return dumps(out)

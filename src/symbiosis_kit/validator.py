"""Model validation: the fixed rule set V001-V013.

Errors (E) block downstream processing; warnings (W) do not. Output order is
deterministic: by code, then node id, then location.

V001 E  duplicate identifier (across all node kinds)
V002 E  unresolved or mis-targeted reference
V003 E  refines cycle
V004 W  leaf business objective that no measurement goal measures
V005 W  measurement goal with no question
V006 W  question status inconsistent with metric citations (both directions)
V007 E  metric function references a base measurement not listed in uses
V008 E  interpretation bands overlap or leave gaps over the effective domain
V009 W  children cover only part of the parent objective's scope universe
V010 E  required template/structural field empty or invalid
V011 W  metric or measurement goal with an empty stakeholder/viewpoint list
V012 E  metric answers a question that does not belong to its goal
V013 W  affects link with no reciprocal depends_on

V010 and V002 read the field table `model.FIELDS`: a row marked `required`
is V010 when its value is empty, and every id a row with a `target` names
must be a node of that kind. Only the conditional rules are written out
here: a positive priority and its justification, a `count` base's `where`
and a `direct` base's `aggregation`, the schedule's periods, the scope's
facets, the objectives a step spawns, and the targets of band actions,
which `Model.stakeholders_of` resolves for V002 and the router alike.

V008 walks cuts (`Interval.start` and `end`) along the effective domain.
It depends only on that domain and its bands' labels and intervals, so one
`validate` call works out the problems of each distinct band scheme once:
metrics written from one template share their scheme.
"""

from __future__ import annotations

from . import expr as _expr
from .diagnostics import Diagnostic, Severity, sort_key
from .model import (
    FIELDS,
    KIND_BASE,
    KIND_OBJECTIVE,
    REFERENCED,
    BusinessObjective,
    Interval,
    MetricDef,
    Model,
    QuestionStatus,
    SourceMode,
    UnresolvedTarget,
    between,
)

# The codes whose findings are warnings; the findings of every other code are errors.
_WARNINGS = frozenset({"V004", "V005", "V006", "V009", "V011", "V013"})

# The rows of each block kind's field table that V010 and V002 check.
_REQUIRED = {kind: tuple(f for f in fields if f.required) for kind, fields in FIELDS.items()}
_REFERENCES = {kind: tuple(f for f in fields if f.target) for kind, fields in FIELDS.items()}


class _Checker:
    def __init__(self, model: Model) -> None:
        self.model = model
        self.out: list[Diagnostic] = []

    def emit(self, code: str, node_id: str | None, message: str) -> None:
        severity = Severity.WARNING if code in _WARNINGS else Severity.ERROR
        self.out.append(Diagnostic(code, severity, message, self.model.spans.get(node_id), node_id))

    # -- V001 ---------------------------------------------------------------

    def check_duplicates(self) -> None:
        for node_id, span in self.model.duplicate_decls:
            first = self.model.spans.get(node_id)
            where = f" (first declared as {self.model.kinds[node_id]} at {first.location()})" if first else ""
            self.out.append(
                Diagnostic(
                    "V001",
                    Severity.ERROR,
                    f"duplicate identifier {node_id!r}{where}",
                    span,
                    node_id,
                )
            )

    # -- V002 ---------------------------------------------------------------

    def check_references(self) -> None:
        model = self.model
        kinds = model.kinds
        for kind, fields in _REFERENCES.items():
            for node_id, node in model.collection(kind).items():
                for f in fields:
                    value = getattr(node, f.attribute)
                    if value:
                        for target in REFERENCED[f.value_kind](value):
                            if target and kinds.get(target) != f.target:
                                self.emit("V002", node_id, model.misreference(f.name, target, f.target))
        for bo_id, bo in model.objectives.items():
            universe = model.universes.get(bo.scope.universe) if bo.scope is not None else None
            if universe is None:
                continue
            for facet in bo.scope.selection or ():
                if facet not in universe.facets:
                    self.emit(
                        "V002",
                        bo_id,
                        f"scope facet {facet!r} is not declared in universe {universe.id!r}",
                    )
        for st_id, st in model.strategies.items():
            for step in st.steps:
                for spawned in step.spawns:
                    if kinds.get(spawned) != KIND_OBJECTIVE:
                        continue  # a V002 of the `step` row
                    if model.objectives[spawned].refines != st.for_objective:
                        self.emit(
                            "V002",
                            st_id,
                            f"step spawns {spawned!r} whose refines is not {st.for_objective!r}",
                        )
        for m_id, metric in model.metrics.items():
            for band in metric.bands:
                for action in band.actions:
                    if action.target.ref:
                        try:
                            model.stakeholders_of(action.target)
                        except UnresolvedTarget as exc:
                            self.emit("V002", m_id, str(exc))

    # -- V003 ---------------------------------------------------------------

    def check_refines_cycles(self) -> None:
        objectives = self.model.objectives
        consumed: set[str] = set()
        for start in objectives:
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
        for bo_id in model.objectives:
            if bo_id not in parents and bo_id not in measured:
                self.emit(
                    "V004",
                    bo_id,
                    f"leaf objective {bo_id!r} is not measured by any measurement goal",
                )
        asked = {q.goal for q in model.questions.values()}
        for mg_id in model.goals:
            if mg_id not in asked:
                self.emit("V005", mg_id, f"measurement goal {mg_id!r} has no question")
        cited: set[str] = set()
        for metric in model.metrics.values():
            cited.update(metric.answers)
        for q_id, q in model.questions.items():
            answered = q.status is QuestionStatus.ANSWERED
            if answered and q_id not in cited:
                self.emit(
                    "V006",
                    q_id,
                    f"question {q_id!r} is marked answered but no metric cites it",
                )
            elif not answered and q_id in cited:
                self.emit(
                    "V006",
                    q_id,
                    f"question {q_id!r} is cited by a metric but still marked open",
                )

    # -- V007 ---------------------------------------------------------------

    def check_function_bases(self) -> None:
        for m_id, metric in self.model.metrics.items():
            if metric.function is None:
                continue
            declared = set(metric.uses)
            for name in _expr.variables(metric.function):
                if name not in declared:
                    self.emit(
                        "V007",
                        m_id,
                        f"function references base measurement {name!r} not listed in uses",
                    )

    # -- V008 ---------------------------------------------------------------

    def check_bands(self) -> None:
        problems_of: dict[tuple, list[str]] = {}  # by band scheme: metrics from one template share one
        for m_id, metric in self.model.metrics.items():
            if not metric.bands:
                continue
            scheme = (metric.effective_domain(), tuple((band.label, band.interval) for band in metric.bands))
            problems = problems_of.get(scheme)
            if problems is None:
                problems = problems_of[scheme] = band_partition_problems(metric)
            for problem in problems:
                self.emit("V008", m_id, problem)

    # -- V009 ---------------------------------------------------------------

    def check_scope_coverage(self) -> None:
        model = self.model
        objectives = model.objectives.items()
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
                    bo_id,
                    f"children of {bo_id!r} cover only part of scope universe "
                    f"{universe.id!r}: missing facets {', '.join(missing)}",
                )

    # -- V010 / V011 ----------------------------------------------------------

    def missing(self, kind: str, node_id: str, field: str) -> None:
        self.emit("V010", node_id, f"{kind} {node_id!r} is missing required field {field!r}")

    def check_required_fields(self) -> None:
        model = self.model
        for kind, fields in _REQUIRED.items():
            for node_id, node in model.collection(kind).items():
                for f in fields:
                    if not getattr(node, f.attribute):
                        self.missing(kind, node_id, f.name)
        for bo_id, bo in model.objectives.items():
            if bo.priority is not None:
                if bo.priority < 1:
                    self.emit("V010", bo_id, f"objective {bo_id!r} priority must be a positive integer")
                if not bo.priority_justification:
                    self.missing(KIND_OBJECTIVE, bo_id, "priority_justification")
        for b_id, base in model.bases.items():
            if base.mode is SourceMode.COUNT:
                if not base.filters:
                    self.missing(KIND_BASE, b_id, "where")
            elif base.aggregation is None:
                self.missing(KIND_BASE, b_id, "aggregation")
        for mg_id, mg in model.goals.items():
            if not mg.viewpoint:
                self.emit("V011", mg_id, f"measurement goal {mg_id!r} has an empty viewpoint list")
        for m_id, metric in model.metrics.items():
            schedule = metric.schedule
            if schedule is not None and schedule.reporting.ordinal < schedule.collection.ordinal:
                self.emit(
                    "V010",
                    m_id,
                    f"metric {m_id!r} schedule reports ({schedule.reporting.value}) "
                    f"more often than it collects ({schedule.collection.value})",
                )
            if not metric.stakeholders:
                self.emit("V011", m_id, f"metric {m_id!r} has an empty stakeholder list")

    # -- V012 ---------------------------------------------------------------

    def check_answer_goal_membership(self) -> None:
        model = self.model
        for m_id, metric in model.metrics.items():
            if metric.goal not in model.goals:
                continue
            for q_id in metric.answers:
                question = model.questions.get(q_id)
                if question is not None and question.goal != metric.goal:
                    self.emit(
                        "V012",
                        m_id,
                        f"metric {m_id!r} answers {q_id!r} which belongs to goal "
                        f"{question.goal!r}, not {metric.goal!r}",
                    )

    # -- V013 ---------------------------------------------------------------

    def check_reciprocal_links(self) -> None:
        model = self.model
        for bo_id, bo in model.objectives.items():
            for aff in bo.affects:
                target = model.objectives.get(aff)
                if target is not None and bo_id not in target.depends_on:
                    self.emit(
                        "V013",
                        bo_id,
                        f"{bo_id!r} affects {aff!r} but {aff!r} does not declare depends_on {bo_id!r}",
                    )


def band_partition_problems(metric: MetricDef) -> list[str]:
    """Describe every overlap and gap of the metric's bands over its domain.

    Empty list == the bands exactly partition the effective domain. Band mass
    outside the domain is ignored (classification rejects such values upfront).
    """
    domain = metric.effective_domain()
    clipped: list[tuple[str, Interval]] = []
    for band in metric.bands:
        part = band.interval.intersect(domain)
        if not part.is_empty():
            clipped.append((band.label, part))

    problems: list[str] = []
    for i in range(len(clipped)):
        for j in range(i + 1, len(clipped)):
            overlap = clipped[i][1].intersect(clipped[j][1])
            if not overlap.is_empty():
                problems.append(
                    f"bands {clipped[i][0]!r} and {clipped[j][0]!r} overlap on {overlap.notation()}"
                )

    # Gap walk over the parts in order of their start: `covered` is the cut
    # up to which the domain is covered.
    covered = domain.start()
    for part in sorted((part for _, part in clipped), key=Interval.start):
        if part.start() > covered:
            problems.append(f"gap {between(covered, part.start()).notation()} is not covered by any band")
        covered = max(covered, part.end())
    if domain.end() > covered:
        problems.append(f"gap {between(covered, domain.end()).notation()} is not covered by any band")
    return problems


def validate(model: Model) -> list[Diagnostic]:
    """Run every rule; returns diagnostics in deterministic order."""
    checker = _Checker(model)
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

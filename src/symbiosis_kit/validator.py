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
"""

from __future__ import annotations

from . import expr as _expr
from .diagnostics import Diagnostic, Severity, sort_key
from .model import (
    BusinessObjective,
    Interval,
    MetricDef,
    Model,
    SourceMode,
)

_E = Severity.ERROR
_W = Severity.WARNING


class _Checker:
    def __init__(self, model: Model) -> None:
        self.model = model
        self.out: list[Diagnostic] = []

    def emit(self, code: str, severity: Severity, node_id: str | None, message: str) -> None:
        span = None
        if node_id is not None:
            owner_kind = self.model.kind_of(node_id)
            if owner_kind is not None:
                span = self.model.span_of(owner_kind, node_id)
        self.out.append(Diagnostic(code, severity, message, span, node_id))

    # -- V001 ---------------------------------------------------------------

    def check_duplicates(self) -> None:
        for kind, node_id, span in self.model.duplicate_decls:
            first_kind = self.model.kind_of(node_id)
            first = self.model.span_of(first_kind, node_id) if first_kind else None
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
        actual = self.model.kind_of(target)
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
                        owner_kind = model.kind_of(target.ref)
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
            for problem in band_partition_problems(metric):
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
            if not gap.is_empty():
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
        if not gap.is_empty():
            problems.append(f"gap {gap.notation()} is not covered by any band")
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

"""Random model generators for the property suites.

random_model targets the serializer round-trip: it exercises every block kind,
optional field, escape-needing string and expression shape the canonical form
can carry. random_dag_model targets impact analysis: well-referenced models
whose traceability graph has interesting shared-ancestry shapes.
"""

from __future__ import annotations

import datetime as dt
import random

from symbiosis_kit import expr
from symbiosis_kit.model import (
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
    ReportingSchedule,
    ScopeRef,
    ScopeUniverse,
    SourceMode,
    Stakeholder,
    Strategy,
    StrategyStep,
)

_WORDS = [
    "audit", "控制", "policy", "review", "notify", "scope", "risk",
    "a\"b", "back\\slash", "tab\there", "line\nbreak", "ret\rurn",
    "percent %", "#not a comment", "{braces}", "[brackets]", "(parens)",
    "", "trailing space ", " comma, semicolon;",
]

_GRANULARITIES = list(Granularity)


def _text(rng: random.Random, allow_empty: bool = True) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(0, 3))]
    out = " ".join(words)
    if not allow_empty and not out:
        return "x"
    return out


def _scale(rng: random.Random) -> float:
    """Mostly 1; sometimes 1e-6 or 1e17, whose multiples print with an exponent."""
    return rng.choice([1, 1, 1, 1, 1e-6, 1e17])


def _number(rng: random.Random) -> float:
    return rng.randint(0, 999) / rng.choice([1, 1, 2, 4, 8]) * _scale(rng)


def _expr(rng: random.Random, names: list[str], depth: int) -> expr.Expr:
    if depth <= 0 or rng.random() < 0.3:
        if names and rng.random() < 0.6:
            return expr.Var(rng.choice(names))
        return expr.Num(_number(rng))
    if rng.random() < 0.2:
        return expr.Neg(_expr(rng, names, depth - 1))
    op = rng.choice(["+", "-", "*", "/"])
    return expr.BinOp(op, _expr(rng, names, depth - 1), _expr(rng, names, depth - 1))


def _interval(rng: random.Random) -> Interval:
    scale = _scale(rng)
    lo = rng.randint(-50, 200) / rng.choice([1, 2, 4]) * scale
    if rng.random() < 0.15:
        return Interval(lo, lo, True, True)  # single point, both ends closed
    hi = lo + rng.randint(1, 100) / rng.choice([1, 2, 4]) * scale
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def _date(rng: random.Random) -> dt.date:
    return dt.date(rng.randint(2010, 2020), rng.randint(1, 12), rng.randint(1, 28))


def random_model(rng: random.Random, max_nodes: int = 30) -> Model:
    """A structurally arbitrary model; references may dangle on purpose."""
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        # Mix plain, dotted and underscored shapes.
        if counter % 3 == 0:
            return f"{prefix}{counter}.{rng.randint(1, 9)}"
        if counter % 5 == 0:
            return f"{prefix}_{counter}"
        return f"{prefix}{counter}"

    budget = rng.randint(1, max_nodes)
    stakeholders = {}
    universes = {}
    objectives = {}
    strategies = {}
    goals = {}
    questions = {}
    bases = {}
    metrics = {}

    def ref_pool() -> list[str]:
        return (
            list(stakeholders) + list(universes) + list(objectives)
            + list(goals) + list(questions) + list(bases) + list(metrics)
        )

    def idents(rng: random.Random, k: int) -> tuple[str, ...]:
        pool = ref_pool()
        if not pool:
            return ()
        return tuple(rng.choice(pool) for _ in range(rng.randint(0, k)))

    while counter < budget:
        kind = rng.randrange(8)
        if kind == 0:
            sid = fresh("S")
            stakeholders[sid] = Stakeholder(sid, _text(rng), _text(rng))
        elif kind == 1:
            uid = fresh("U")
            facets = tuple(f"f{rng.randint(1, 9)}_{i}" for i in range(rng.randint(1, 4)))
            universes[uid] = ScopeUniverse(uid, facets)
        elif kind == 2:
            bo_id = fresh("BO")
            scope = None
            if universes and rng.random() < 0.7:
                uid = rng.choice(list(universes))
                facets = universes[uid].facets
                selection = None
                if rng.random() < 0.5:
                    k = rng.randint(1, len(facets))
                    selection = tuple(rng.sample(list(facets), k))
                description = _text(rng) if rng.random() < 0.5 else None
                scope = ScopeRef(uid, selection, description)
            priority = rng.randint(1, 5) if rng.random() < 0.3 else None
            objectives[bo_id] = BusinessObjective(
                id=bo_id,
                object=_text(rng),
                scope=scope,
                purpose=_text(rng),
                viewpoint=idents(rng, 2),
                context=_text(rng),
                refines=rng.choice(list(objectives)) if objectives and rng.random() < 0.5 else None,
                depends_on=idents(rng, 2),
                affects=idents(rng, 2),
                priority=priority,
                priority_justification=_text(rng) if priority else "",
            )
        elif kind == 3:
            st_id = fresh("ST")
            steps = tuple(
                StrategyStep(_text(rng), idents(rng, 1))
                for _ in range(rng.randint(0, 3))
            )
            # `for:` takes a bare identifier, so it cannot round-trip empty.
            target = rng.choice(list(objectives)) if objectives else "BO_missing"
            strategies[st_id] = Strategy(st_id, target, steps, _text(rng))
        elif kind == 4:
            mg_id = fresh("MG")
            goals[mg_id] = MeasurementGoal(
                id=mg_id,
                object=_text(rng),
                purpose=_text(rng),
                focus=_text(rng),
                scope=_text(rng),
                criteria=tuple(_text(rng) for _ in range(rng.randint(0, 3))),
                viewpoint=idents(rng, 2),
                context=_text(rng),
                measures=idents(rng, 2),
                related=idents(rng, 1),
            )
        elif kind == 5:
            q_id = fresh("Q")
            questions[q_id] = MeasurementQuestion(
                q_id,
                rng.choice(list(goals)) if goals else "MG_missing",
                _text(rng),
                rng.choice(list(QuestionStatus)),
            )
        elif kind == 6:
            b_id = fresh("bm")
            mode = rng.choice(list(SourceMode))
            filters = tuple(
                (f"k{i}", _text(rng)) for i in range(rng.randint(0, 2))
            )
            bases[b_id] = BaseMeasurementDef(
                b_id,
                _text(rng),
                mode,
                filters if mode is SourceMode.COUNT else (),
                rng.choice(list(Aggregation)) if mode is SourceMode.DIRECT else None,
            )
        else:
            m_id = fresh("ME")
            bands = []
            for _ in range(rng.randint(0, 3)):
                actions = tuple(
                    Action(
                        rng.choice(list(ActionKind)),
                        ActionTarget(rng.choice(ref_pool() or ["S0"]), rng.random() < 0.3),
                    )
                    for _ in range(rng.randint(0, 2))
                )
                bands.append(InterpretationBand(_interval(rng), f"b{rng.randint(0, 9)}", actions))
            schedule = None
            if rng.random() < 0.7:
                schedule = ReportingSchedule(rng.choice(_GRANULARITIES), rng.choice(_GRANULARITIES))
            metrics[m_id] = MetricDef(
                id=m_id,
                description=_text(rng),
                goal=rng.choice(list(goals)) if goals else "",
                answers=idents(rng, 2),
                uses=idents(rng, 2),
                method=_text(rng),
                function=_expr(rng, list(bases), rng.randint(0, 4)) if rng.random() < 0.8 else None,
                bands=tuple(bands),
                schedule=schedule,
                stakeholders=idents(rng, 2),
                domain=_interval(rng) if rng.random() < 0.3 else None,
                created=_date(rng) if rng.random() < 0.4 else None,
                modified=_date(rng) if rng.random() < 0.3 else None,
                reviewed=_date(rng) if rng.random() < 0.3 else None,
            )

    return Model(
        stakeholders=stakeholders,
        universes=universes,
        objectives=objectives,
        strategies=strategies,
        goals=goals,
        questions=questions,
        bases=bases,
        metrics=metrics,
    )


def program_model(rng: random.Random, objectives: int = 511) -> Model:
    """A measurement program of realistic size, for the lexer and parser.

    Objectives `BO1`..`BO<n>` form a binary refines tree (BO<i> refines
    BO<i // 2>); every leaf carries a goal, a question, two bases and a metric
    whose texts, functions, bands and dates come from the generators above,
    so the serialized program holds every kind of token at scale. References
    resolve, but the validator still finds empty required texts and bands
    that do not cover the domain.
    """
    universe = ScopeUniverse("org", ("a", "b", "c"))
    stakeholder = Stakeholder("owner", _text(rng), _text(rng))
    nodes: dict[str, dict] = {kind: {} for kind in ("objectives", "goals", "questions", "bases", "metrics")}
    for i in range(1, objectives + 1):
        bo_id = f"BO{i}"
        nodes["objectives"][bo_id] = BusinessObjective(
            id=bo_id,
            object=_text(rng),
            scope=ScopeRef("org", ("a", "b")[: rng.randint(1, 2)] if rng.random() < 0.5 else None),
            purpose=_text(rng),
            viewpoint=("owner",),
            context=_text(rng),
            refines=f"BO{i // 2}" if i > 1 else None,
            priority=rng.randint(1, 5),
            priority_justification=_text(rng, allow_empty=False),
        )
        if 2 * i <= objectives:
            continue
        mg, q, me, count, direct = f"MG{i}", f"Q{i}", f"ME{i}.1", f"bm_{i}_n", f"bm_{i}_v"
        nodes["goals"][mg] = MeasurementGoal(
            mg, _text(rng), _text(rng), _text(rng), _text(rng), (_text(rng),), ("owner",), _text(rng), (bo_id,)
        )
        nodes["questions"][q] = MeasurementQuestion(q, mg, _text(rng), rng.choice(list(QuestionStatus)))
        nodes["bases"][count] = BaseMeasurementDef(count, _text(rng), SourceMode.COUNT, (("event", _text(rng)),))
        nodes["bases"][direct] = BaseMeasurementDef(direct, _text(rng), SourceMode.DIRECT, (), Aggregation.SUM)
        nodes["metrics"][me] = MetricDef(
            id=me,
            description=_text(rng),
            goal=mg,
            answers=(q,),
            uses=(count, direct),
            method=_text(rng),
            function=_expr(rng, [count, direct], 3),
            bands=tuple(
                InterpretationBand(_interval(rng), f"b{k}", (Action(ActionKind.NOTIFY, ActionTarget(bo_id, True)),))
                for k in range(rng.randint(1, 3))
            ),
            schedule=ReportingSchedule(Granularity.MONTHLY, Granularity.QUARTERLY),
            stakeholders=("owner",),
            domain=_interval(rng),
            created=_date(rng),
        )
    return Model(stakeholders={"owner": stakeholder}, universes={"org": universe}, **nodes)


# -- band sets for the partition property ----------------------------------
# Endpoints live on a 1e-4 lattice inside the domain [0, 0.002]; in integer
# micro-units (1e-6) that is multiples of 100 inside [0, 2000]. The micro-unit
# form feeds the sweep oracle, the float form feeds the validator.

BAND_LATTICE_U = 100
BAND_DOMAIN_HI_U = 2000


def micro_to_float(u: int) -> float:
    return u / 1_000_000


def random_band_set(rng: random.Random) -> list[tuple[int, int, bool, bool]]:
    """Bands in micro-units: about half exact partitions, half defective."""
    if rng.random() < 0.5:
        cuts = sorted(rng.sample(range(1, 20), rng.randint(0, 3)))
        bounds = [0] + [c * BAND_LATTICE_U for c in cuts] + [BAND_DOMAIN_HI_U]
        sides = [rng.random() < 0.5 for _ in cuts]  # True: boundary point goes left
        bands = []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            lo_closed = True if i == 0 else not sides[i - 1]
            hi_closed = True if i == len(bounds) - 2 else sides[i]
            bands.append((lo, hi, lo_closed, hi_closed))
        roll = rng.random()
        if roll < 0.25 and bands:
            bands.pop(rng.randrange(len(bands)))  # open a gap
        elif roll < 0.4 and len(bands) > 1:
            i = rng.randrange(len(bands) - 1)
            lo, hi, lo_c, hi_c = bands[i]
            bands[i] = (lo, hi + BAND_LATTICE_U, lo_c, hi_c)  # overlap the next band
        elif roll < 0.55 and len(bands) > 1:
            # Single-point defect at a shared boundary: both closed doubles the
            # point, both open drops it. The sharpest case for the sweep.
            i = rng.randrange(len(bands) - 1)
            lo, hi, lo_c, _ = bands[i]
            lo2, hi2, _, hi2_c = bands[i + 1]
            both = rng.random() < 0.5
            bands[i] = (lo, hi, lo_c, both)
            bands[i + 1] = (lo2, hi2, both, hi2_c)
        return bands
    bands = []
    for _ in range(rng.randint(0, 4)):
        lo_i = rng.randint(0, 20)
        hi_i = rng.randint(lo_i, 20)
        lo_c = rng.random() < 0.5
        hi_c = rng.random() < 0.5
        if lo_i == hi_i and not (lo_c and hi_c):
            lo_c = hi_c = True  # keep every generated interval non-empty
        bands.append((lo_i * BAND_LATTICE_U, hi_i * BAND_LATTICE_U, lo_c, hi_c))
    return bands


def metric_from_band_set(bands_u: list[tuple[int, int, bool, bool]]) -> MetricDef:
    bands = tuple(
        InterpretationBand(
            Interval(micro_to_float(lo), micro_to_float(hi), lo_c, hi_c),
            f"band{i}",
        )
        for i, (lo, hi, lo_c, hi_c) in enumerate(bands_u)
    )
    return MetricDef(
        id="ME_bands",
        description="d",
        goal="",
        answers=(),
        uses=(),
        method="m",
        function=None,
        bands=bands,
        schedule=None,
        stakeholders=(),
        domain=Interval(0.0, micro_to_float(BAND_DOMAIN_HI_U), True, True),
    )


def random_dag_model(rng: random.Random, max_nodes: int = 20) -> Model:
    """A fully referenced model whose graph builds cleanly.

    Objectives form a refines forest; goals, questions and metrics hang off it,
    sometimes sharing targets so removal produces both orphans and survivors.
    """
    budget = rng.randint(4, max_nodes)
    objectives: dict[str, BusinessObjective] = {}
    goals: dict[str, MeasurementGoal] = {}
    questions: dict[str, MeasurementQuestion] = {}
    metrics: dict[str, MetricDef] = {}

    n_roots = rng.randint(1, min(3, budget))
    for i in range(n_roots):
        bo_id = f"BO{i}"
        objectives[bo_id] = BusinessObjective(
            bo_id, "o", None, "p", (), "c", refines=None
        )

    def spend() -> int:
        return len(objectives) + len(goals) + len(questions) + len(metrics)

    while spend() < budget:
        roll = rng.random()
        if roll < 0.35:
            bo_id = f"BO{len(objectives)}"
            parent = rng.choice(list(objectives))
            deps = tuple(
                rng.sample(list(objectives), rng.randint(0, min(2, len(objectives))))
            )
            objectives[bo_id] = BusinessObjective(
                bo_id, "o", None, "p", (), "c",
                refines=parent,
                depends_on=deps,
                affects=tuple(rng.sample(list(objectives), rng.randint(0, 1))),
            )
        elif roll < 0.6:
            mg_id = f"MG{len(goals)}"
            count = rng.randint(1, min(2, len(objectives)))
            goals[mg_id] = MeasurementGoal(
                mg_id, "o", "p", "f", "s", ("c",), (), "ctx",
                measures=tuple(rng.sample(list(objectives), count)),
            )
        elif roll < 0.85 and goals:
            q_id = f"Q{len(questions)}"
            questions[q_id] = MeasurementQuestion(q_id, rng.choice(list(goals)), "t")
        elif questions:
            m_id = f"ME{len(metrics)}"
            count = rng.randint(1, min(2, len(questions)))
            metrics[m_id] = MetricDef(
                id=m_id,
                description="d",
                goal=rng.choice(list(goals)),
                answers=tuple(rng.sample(list(questions), count)),
                uses=(),
                method="m",
                function=None,
                bands=(),
                schedule=None,
                stakeholders=(),
            )

    return Model(
        objectives=objectives, goals=goals, questions=questions, metrics=metrics
    )

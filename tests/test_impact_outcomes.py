"""`impact` names every metric whose evaluation a one-field edit can move.

Each example edits one field of one node of `corpus/jpmorgan.sym`, keeps
the edit if the model still validates with no errors, and evaluates every
metric under both versions on the corpus logs for each month of 2014-01
through 2014-09. A metric whose value, band, failure or affected objectives
differ in some month must be a changed node or be named in the sets of
some impact report.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import CORPUS_ROOT
from symbiosis_kit.diagnostics import has_errors
from symbiosis_kit.graph import build_graph
from symbiosis_kit.impact import analyze
from symbiosis_kit.model import COLLECTIONS, FIELDS, NODE_KINDS, NODE_TYPES
from symbiosis_kit.parser import parse_file
from symbiosis_kit.periods import period_range
from symbiosis_kit.pipeline import evaluate_metrics, ingest_many
from symbiosis_kit.validator import validate

JPMORGAN, _ = parse_file(CORPUS_ROOT / "jpmorgan.sym")
LOGS = sorted(str(path) for path in (CORPUS_ROOT / "logs").glob("jpmorgan_2014-*.jsonl"))
MONTHS = period_range("2014-01", "2014-09")

# bm_took counts the new hires who missed the induction training instead of
# those who attended it; ME1.1.1.1.1 divides by it.
BASE_EDIT = ("base", "bm_took", "filters", (("event", "new_hire_training"), ("attendance", "absent")))


def _outcomes(model) -> dict[str, list[object]]:
    """Per metric, what each month's evaluation gives, density warnings aside;
    a metric whose schedule refuses the months gives the refusal for each."""
    metric_ids = sorted(model.metrics)
    results, skipped = evaluate_metrics(model, build_graph(model), ingest_many(LOGS, model), metric_ids, MONTHS)
    outcomes: dict[str, list[object]] = {metric_id: [str(exc)] * len(MONTHS) for metric_id, exc in skipped}
    for r in results:
        band = r.band.label if r.band else None
        outcomes.setdefault(r.metric_id, []).append((r.value, band, r.failure, r.affected_objectives))
    assert sorted(outcomes) == metric_ids and all(len(months) == len(MONTHS) for months in outcomes.values())
    return outcomes


OLD_OUTCOMES = _outcomes(JPMORGAN)


def _field_values() -> dict[str, set[str]]:
    """The values each raw-event field takes in the logs."""
    seen: dict[str, set[str]] = {}
    for path in LOGS:
        with open(path, encoding="utf-8") as lines:
            for line in lines:
                for key, value in json.loads(line).get("fields", {}).items():
                    seen.setdefault(key, set()).add(str(value))
    return seen


def _filter_variants(filters, seen: dict[str, set[str]]):
    """`filters` with one condition dropped, or its value changed to another
    value the logs give that field or to "absent", which they never give."""
    for i, (key, _) in enumerate(filters):
        yield filters[:i] + filters[i + 1:]
        for other in sorted(seen.get(key, set()) | {"absent"}):
            yield filters[:i] + ((key, other),) + filters[i + 1:]


def _candidate_edits() -> list[tuple[str, str, str, object]]:
    """Every (kind, id, attribute, value) that changes one field of one node to
    its value in another node of the same kind or in a node with every field
    unset, plus the filter variants of each count base."""
    seen = _field_values()
    edits: dict[str, tuple[str, str, str, object]] = {}
    for kind in NODE_KINDS:
        nodes = JPMORGAN.collection(kind)
        for node_id, node in sorted(nodes.items()):
            donors = [nodes[donor_id] for donor_id in sorted(nodes)] + [NODE_TYPES[kind](id=node_id)]
            for row in FIELDS[kind]:
                values = [getattr(donor, row.attribute) for donor in donors]
                if row.attribute == "filters":
                    values += _filter_variants(node.filters, seen)
                for value in values:
                    if value != getattr(node, row.attribute):
                        edit = (kind, node_id, row.attribute, value)
                        edits.setdefault(repr(edit), edit)
    return list(edits.values())


EDITS = _candidate_edits()


def _edited(kind, node_id, attribute, value):
    nodes = JPMORGAN.collection(kind)
    node = nodes[node_id]._replace(**{attribute: value})
    return JPMORGAN._replace(**{COLLECTIONS[kind]: {**nodes, node_id: node}})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EDITS))
@example(BASE_EDIT)
def test_every_metric_whose_evaluation_moves_is_named(edit):
    new = _edited(*edit)
    if has_errors(validate(new)):
        return
    named: set[str] = set()
    for report in analyze(JPMORGAN, new):
        named.add(report.change.node_id)
        named.update(
            report.downstream_orphans + report.downstream_review + report.upstream_review + report.related
        )
    new_outcomes = _outcomes(new)
    moved = [m for m in sorted(OLD_OUTCOMES) if OLD_OUTCOMES[m] != new_outcomes[m]]
    assert not set(moved) - named, f"{edit}: {moved} moved, impact names {sorted(named)}"


def test_the_base_edit_moves_a_metric():
    """The explicit example above is not vacuous: it fails ME1.1.1.1.1 in 2014-03."""
    new = _edited(*BASE_EDIT)
    assert not has_errors(validate(new))
    moved = _outcomes(new)["ME1.1.1.1.1"]
    assert moved != OLD_OUTCOMES["ME1.1.1.1.1"]
    assert OLD_OUTCOMES["ME1.1.1.1.1"][2][:2] == (100.0, "ok")
    assert moved[2][2] == "division by zero in (bm_completed / bm_took)"

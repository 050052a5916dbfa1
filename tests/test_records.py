"""Records are `NamedTuple`s: guards for what tuple semantics would let slip.

A record compares equal to a plain tuple of the same values and to a record
of another type with the same values, so an equality check alone cannot
tell a node built as the wrong type. These tests check types as well.
"""

import random

import pytest

from modelgen import program_model, random_dag_model, random_model
from oracles import contains_as_written
from symbiosis_kit.diagnostics import Diagnostic, Severity
from symbiosis_kit.model import NODE_KINDS, NODE_TYPES, Interval, Model
from symbiosis_kit.parser import parse, parse_file
from symbiosis_kit.serializer import serialize

CORPUS_MODELS = ("jpmorgan.sym", "anthem.sym", "heartland_broken.sym", "heartland_fixed.sym")


def _generated_models() -> list[Model]:
    rng = random.Random(19)
    return (
        [random_model(rng, max_nodes=30) for _ in range(40)]
        + [random_dag_model(rng, max_nodes=20) for _ in range(20)]
        + [program_model(rng, objectives=31)]
    )


def _models(corpus) -> list[tuple[str, Model]]:
    models = []
    for name in CORPUS_MODELS:
        model, diags = parse_file(corpus / name)
        assert not any(d.is_error for d in diags), name
        models.append((name, model))
    return models + [(f"generated {i}", model) for i, model in enumerate(_generated_models())]


def _shape(value):
    """The type of every tuple (record or plain) nested in `value`, as a tree."""
    if isinstance(value, tuple):
        return type(value), [_shape(item) for item in value]
    return None


def test_every_node_is_its_kinds_type(corpus):
    for name, model in _models(corpus):
        for kind in NODE_KINDS:
            for node_id, node in model.collection(kind).items():
                assert type(node) is NODE_TYPES[kind], (name, kind, node_id)


def test_every_node_reparses_equal_and_of_the_same_types(corpus):
    for name, model in _models(corpus):
        reparsed, diags = parse(serialize(model))
        assert not any(d.is_error for d in diags), name
        for kind in NODE_KINDS:
            nodes = reparsed.collection(kind)
            for node_id, node in model.collection(kind).items():
                assert nodes[node_id] == node, (name, kind, node_id)
                assert _shape(nodes[node_id]) == _shape(node), (name, kind, node_id)


@pytest.mark.parametrize("code", ["X1", "V01", "V0001", "v001", ""])
def test_a_malformed_diagnostic_code_is_refused(code):
    with pytest.raises(ValueError, match="bad diagnostic code"):
        Diagnostic(code, Severity.ERROR, "message")
    with pytest.raises(ValueError, match="bad diagnostic code"):
        Diagnostic("V001", Severity.ERROR, "message")._replace(code=code)


def test_a_replaced_model_is_a_model_with_its_own_kinds(jpmorgan):
    assert "ME1.1.1.1.1" in jpmorgan.kinds
    emptied = jpmorgan._replace(metrics={})
    assert type(emptied) is Model
    assert "ME1.1.1.1.1" not in emptied.kinds
    assert emptied.kinds.items() < jpmorgan.kinds.items()


# Every interval with integer endpoints in [-2, 2], sampled at every half step
# of [-3, 3]: a non-empty one contains one of the samples, and its samples
# tell its endpoints and their closedness apart. The points are those the
# oracle's `contains_as_written` finds by comparing endpoints by hand, so
# they check the cut-based methods, `Interval.contains` among them.
_HALF_STEPS = [k / 2 for k in range(-6, 7)]
_INTERVALS = [
    Interval(lo, hi, lo_closed, hi_closed)
    for lo in range(-2, 3)
    for hi in range(-2, 3)
    for lo_closed in (True, False)
    for hi_closed in (True, False)
]


def _points(interval: Interval) -> frozenset[float]:
    return frozenset(x for x in _HALF_STEPS if contains_as_written(interval, x))


def test_an_intervals_cuts_bound_the_points_it_contains():
    for interval in _INTERVALS:
        for x in (*_HALF_STEPS, float("nan")):
            assert interval.contains(x) == contains_as_written(interval, x), (interval, x)
        assert interval.is_empty() == (not _points(interval)), interval
        assert not interval.contains(float("nan")), interval


def test_an_intersection_contains_the_points_both_intervals_contain():
    points = {interval: _points(interval) for interval in _INTERVALS}
    for a in _INTERVALS:
        for b in _INTERVALS:
            assert _points(a.intersect(b)) == points[a] & points[b], (a, b)

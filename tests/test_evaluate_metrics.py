"""`pipeline.evaluate_metrics` against an explicit loop over `evaluate_period`.

Results come metric by metric and key by key, in the order given, and a
metric that its schedule refuses for any key gives no results and one
skipped pair, with the error `evaluate_period` raised. The loop lets
`evaluate_period` walk each key's objective chain itself, so it checks the
chain `evaluate_metrics` walks once per metric and passes on; every result
of a metric holds that one chain object, which its JSON object hands over.
"""

from __future__ import annotations

import datetime as dt
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelgen import random_model
from oracles import evaluate_by_loop
from symbiosis_kit import pipeline
from symbiosis_kit.graph import build_graph, objective_ancestors_ordered
from symbiosis_kit.model import Granularity, SourceMode
from symbiosis_kit.parser import parse
from symbiosis_kit.periods import PeriodError, period_of, period_range
from symbiosis_kit.pipeline import evaluate_metrics, ingest_lines, ingest_many, route_result
from symbiosis_kit.report import result_json_obj


def _log_for(rng: random.Random, model):
    """Up to 40 lines over 2014-2015: a value for a DIRECT base or an event matching a COUNT base."""
    lines = []
    for _ in range(rng.randint(0, 40) if model.bases else 0):
        base = model.bases[rng.choice(sorted(model.bases))]
        day = (dt.date(2014, 1, 1) + dt.timedelta(days=rng.randrange(730))).isoformat()
        if base.mode is SourceMode.DIRECT:
            value = rng.choice([rng.randint(-5, 100), rng.uniform(-5, 100)])
            lines.append(json.dumps({"timestamp": day, "base": base.id, "value": value}))
        else:
            lines.append(json.dumps({"timestamp": day, "fields": dict(base.filters)}))
    return ingest_lines(lines, "log", model)


def _shown(outcome):
    """Results by repr (so the sign of zero counts) and skipped pairs by id, type and message."""
    results, skipped = outcome
    return [repr(r) for r in results], [(metric_id, type(exc), str(exc)) for metric_id, exc in skipped]


def _random_case(seed, granularity, start, span_days, reverse, extra=None):
    """A random model, some of its metrics, a log and a key range, reversed or not, and then
    one key of granularity `extra` if given."""
    rng = random.Random(seed)
    model = random_model(rng, max_nodes=30)
    metric_ids = rng.sample(sorted(model.metrics), rng.randint(0, len(model.metrics)))
    last = start + dt.timedelta(days=span_days)
    keys = period_range(period_of(start, granularity), period_of(last, granularity))
    if reverse:
        keys.reverse()
    if extra is not None:
        keys.append(period_of(last, extra))
    return model, build_graph(model), _log_for(rng, model), metric_ids, keys


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(Granularity)),
    st.dates(dt.date(2013, 10, 1), dt.date(2015, 12, 31)),
    st.integers(0, 120),
    st.booleans(),
    st.none() | st.sampled_from(list(Granularity)),
)
def test_random_models_over_key_ranges_match_the_loop(seed, granularity, start, span_days, reverse, extra):
    case = _random_case(seed, granularity, start, span_days, reverse, extra)
    assert _shown(evaluate_metrics(*case)) == _shown(evaluate_by_loop(*case))


def test_the_random_cases_both_evaluate_and_skip():
    """The property above is not vacuous: its cases give results and skips, at every granularity."""
    for granularity in Granularity:
        results = skipped = 0
        for seed in range(40):
            got, refused = evaluate_metrics(*_random_case(seed, granularity, dt.date(2014, 3, 1), 40, False))
            results += len(got)
            skipped += len(refused)
        assert results and skipped, granularity


MIXED, _ = parse(
    """
    base g { description: "d" mode: direct aggregation: latest }
    metric M { uses: g function: g band: [0, 100] -> ok { log s } schedule: monthly / monthly }
    metric N { uses: g function: g band: [0, 100] -> ok { log s } schedule: monthly / quarterly }
    metric O { uses: g function: g band: [0, 100] -> ok { log s } }
    """
)


def test_a_metric_refused_on_a_later_key_is_skipped_whole():
    """M runs on the two months, then its schedule refuses the quarter: none of its results remain."""
    log = ingest_lines(['{"timestamp": "2014-01-10", "base": "g", "value": 7}'], "log", MIXED)
    case = (MIXED, build_graph(MIXED), log, ["N", "M", "O"], ["2014-01", "2014-02", "2014-Q1"])
    results, skipped = evaluate_metrics(*case)
    assert _shown((results, skipped)) == _shown(evaluate_by_loop(*case))
    assert [(r.metric_id, r.period) for r in results] == [
        (metric_id, key) for metric_id in ("N", "O") for key in ("2014-01", "2014-02", "2014-Q1")
    ]
    assert [(metric_id, type(exc), str(exc)) for metric_id, exc in skipped] == [
        ("M", PeriodError, "period '2014-Q1' is quarterly; metric 'M' runs on monthly / monthly")
    ]


def test_a_skipped_error_holds_no_frames():
    """A traceback would keep the call's frame, and with it the model, the log and
    the results, alive in a reference cycle until the next full collection."""
    log = ingest_lines([], "log", MIXED)
    _, skipped = evaluate_metrics(MIXED, build_graph(MIXED), log, ["M"], ["2014-Q1"])
    assert [exc.__traceback__ for _, exc in skipped] == [None]


@pytest.mark.parametrize("months", [1, 2, 12])
def test_each_metric_walks_its_objective_chain_once(monkeypatch, jpmorgan, jpmorgan_logs, months):
    """The chain belongs to the metric, not to the period: one walk per evaluated metric,
    whatever the number of keys, and every key's result carries the same chain."""
    walks = []

    def counted(graph, node_id):
        walks.append(node_id)
        return objective_ancestors_ordered(graph, node_id)

    monkeypatch.setattr(pipeline, "objective_ancestors_ordered", counted)
    graph = build_graph(jpmorgan)
    keys = [f"2014-{month:02}" for month in range(1, months + 1)]
    metric_ids = sorted(jpmorgan.metrics)
    results, skipped = evaluate_metrics(jpmorgan, graph, ingest_many(jpmorgan_logs, jpmorgan), metric_ids, keys)
    assert not skipped and len(results) == len(metric_ids) * months
    assert walks == metric_ids and len(walks) == 6
    for result in results:
        assert result.affected_objectives == tuple(objective_ancestors_ordered(graph, result.metric_id))


def test_an_unknown_metric_gives_nothing_without_keys_and_a_key_error_with_them():
    log = ingest_lines([], "log", MIXED)
    graph = build_graph(MIXED)
    assert evaluate_metrics(MIXED, graph, log, ["X"], []) == ([], [])
    with pytest.raises(KeyError, match="unknown metric 'X'"):
        evaluate_metrics(MIXED, graph, log, ["X"], ["2014-01"])


def test_one_metrics_results_share_one_chain_and_their_json_hands_it_over(jpmorgan, jpmorgan_logs):
    """Every result of a metric holds the same `affected_objectives` object, and its JSON
    object, like a directive's stakeholders, holds its tuple uncopied, so a report copies
    no chain before writing it."""
    keys = [f"2014-{month:02}" for month in range(1, 13)]
    log = ingest_many(jpmorgan_logs, jpmorgan)
    results, skipped = evaluate_metrics(jpmorgan, build_graph(jpmorgan), log, sorted(jpmorgan.metrics), keys)
    assert not skipped
    chains: dict[str, tuple[str, ...]] = {}
    for result in results:
        chain = chains.setdefault(result.metric_id, result.affected_objectives)
        assert result.affected_objectives is chain
        obj = result_json_obj(result, jpmorgan)
        assert obj["affected_objectives"] is chain
        assert obj["density_warnings"] is result.density_warnings
        for directive in route_result(result, jpmorgan):
            assert directive.to_json_obj()["stakeholders"] is directive.stakeholders
    assert len(chains) == 6 and all(chains.values())

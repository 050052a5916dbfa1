"""Model stages cost time linear in the model: a gate that counts, not times.

The count is of Python-level calls (`sys.setprofile` `call` and `c_call`
events) made by `parse_file`, `validate`, `build_graph`, `serialize` and
`impact.analyze` on generated programs of N and 2N objectives. `analyze`
is counted twice: against the program with one metric's description edited,
and against it with one leaf objective removed. A rule that rescans the
model for each node multiplies its calls by about four when N doubles; a
linear one by about two. Ratios are asserted, not counts, because the
`c_call` events of one program differ between Python versions.

The profiler does not see work done inside C code (the regex engine, `str`
methods, `sorted`), nor the steps of a loop that calls nothing per step, so
a superlinear regex, string scan or bare `for` loop would pass here; a rescan
that calls a function or resumes a generator per node does not.
"""

from __future__ import annotations

import random
import sys

import pytest

from modelgen import program_model
from symbiosis_kit.graph import build_graph
from symbiosis_kit.impact import analyze
from symbiosis_kit.parser import parse_file
from symbiosis_kit.serializer import serialize
from symbiosis_kit.validator import validate

OBJECTIVES = 255
MAX_RATIO = 2.2  # calls at 2N over calls at N


def count_calls(fn, *args) -> tuple[int, object]:
    """The Python-level calls `fn(*args)` makes, with its result."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return calls, result


LOADING = ["parse_file", "validate"]
STAGES = ["build_graph", "serialize", "analyze_edit", "analyze_removal"]


def edited(model):
    """`model` with the description of its first metric changed."""
    m_id, metric = next(iter(model.metrics.items()))
    return model._replace(metrics={**model.metrics, m_id: metric._replace(description="edited")})


def removed(model, objectives: int):
    """`model` without its last objective, a leaf of the refines tree."""
    return model._replace(objectives={k: v for k, v in model.objectives.items() if k != f"BO{objectives}"})


@pytest.fixture(scope="module")
def loads(tmp_path_factory) -> dict[str, list[int]]:
    """Calls of each stage at N and 2N objectives."""
    counts: dict[str, list[int]] = {stage: [] for stage in LOADING + STAGES}
    for objectives in (OBJECTIVES, 2 * OBJECTIVES + 1):
        path = tmp_path_factory.mktemp("linear") / f"program{objectives}.sym"
        path.write_text(serialize(program_model(random.Random(7), objectives=objectives)), encoding="utf-8")
        calls, (model, diags) = count_calls(parse_file, path)
        assert not diags
        counts["parse_file"].append(calls)
        for stage, fn, args in (
            ("validate", validate, (model,)),
            ("build_graph", build_graph, (model,)),
            ("serialize", serialize, (model,)),
            ("analyze_edit", analyze, (model, edited(model))),
            ("analyze_removal", analyze, (model, removed(model, objectives))),
        ):
            calls, result = count_calls(fn, *args)
            assert result
            counts[stage].append(calls)
    return counts


@pytest.mark.parametrize("stage", LOADING)
def test_model_loading_calls_grow_linearly_with_the_model(loads, stage):
    small, large = loads[stage]
    assert small > 10_000  # the counter saw the stage's work
    assert large / small <= MAX_RATIO, (stage, small, large)


@pytest.mark.parametrize("stage", STAGES)
def test_model_stage_calls_grow_linearly_with_the_model(loads, stage):
    small, large = loads[stage]
    assert small > 5_000  # the counter saw the stage's work
    assert large / small <= MAX_RATIO, (stage, small, large)

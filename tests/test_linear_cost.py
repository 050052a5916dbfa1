"""Model loading costs time linear in the model: a gate that counts, not times.

The count is of Python-level calls (`sys.setprofile` `call` and `c_call`
events) made by `parse_file` and by `validate` on generated programs of N
and 2N objectives. A rule that rescans the model for each node multiplies
its calls by about four when N doubles; a linear one by about two. Ratios
are asserted, not counts, because the `c_call` events of one program differ
between Python versions.

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


@pytest.fixture(scope="module")
def loads(tmp_path_factory) -> dict[str, list[int]]:
    """Calls of each stage at N and 2N objectives."""
    counts: dict[str, list[int]] = {"parse_file": [], "validate": []}
    for objectives in (OBJECTIVES, 2 * OBJECTIVES + 1):
        path = tmp_path_factory.mktemp("linear") / f"program{objectives}.sym"
        path.write_text(serialize(program_model(random.Random(7), objectives=objectives)), encoding="utf-8")
        calls, (model, diags) = count_calls(parse_file, path)
        assert not diags
        counts["parse_file"].append(calls)
        calls, _ = count_calls(validate, model)
        counts["validate"].append(calls)
    return counts


@pytest.mark.parametrize("stage", ["parse_file", "validate"])
def test_model_loading_calls_grow_linearly_with_the_model(loads, stage):
    small, large = loads[stage]
    assert small > 10_000  # the counter saw the stage's work
    assert large / small <= MAX_RATIO, (stage, small, large)

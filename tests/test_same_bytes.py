"""The same bytes for the same inputs: every benchmark op's output matches `tests/same_bytes.json`.

The golden files in `corpus/golden/` cover the four small case studies;
this covers the ops of the three benchmark workloads at two seeds each, at
the sizes the benchmark runs (`tests/same_bytes.py` says how the digests are
made, and rewrites them). A change that means to change an output rewrites
the file; any other change must leave every digest as it is.
"""

from __future__ import annotations

import json

import pytest

import same_bytes

EXPECTED = json.loads(same_bytes.DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def found(tmp_path_factory) -> dict[str, dict[str, str]]:
    return same_bytes.digests(tmp_path_factory.mktemp("same_bytes"))


def test_the_digests_cover_every_workload_and_seed(found):
    assert sorted(found) == sorted(EXPECTED)


@pytest.mark.parametrize("entry", sorted(EXPECTED))
def test_each_op_gives_the_same_bytes(found, entry):
    assert found[entry]["inputs"] == EXPECTED[entry]["inputs"], f"{entry}: bench/gen.py wrote other inputs"
    assert found[entry]["outputs"] == EXPECTED[entry]["outputs"], f"{entry}: the ops gave other bytes"

"""Arbitrary log lines: ingest never raises and the CLI keeps its exit codes.

Every non-blank line is either accepted (one DIRECT entry, or one count in
the raw-event tally) or exactly one I-diagnostic, and a line that is not
JSON is reported with the words json.loads uses for it.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS_ROOT
from symbiosis_kit import cli
from symbiosis_kit.parser import parse_file
from symbiosis_kit.pipeline import ingest_lines

MODEL_PATH = str(CORPUS_ROOT / "jpmorgan.sym")
MODEL, _ = parse_file(MODEL_PATH)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.just(10**400),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)

# Objects shaped like log records, so that some lines are accepted and the
# rest fail each later check of ingest, not only the JSON decoding.
_timestamps = st.sampled_from(["2014-01-05", "2014-01-20", "2014-02-30", "2014-1-5"]) | _json
_bases = st.sampled_from(["bm_sections_total", "bm_incidents_human", "bm_took", "nope"]) | _json
_values = st.integers(-5, 5) | st.floats() | _json
_fields = (
    st.dictionaries(
        st.sampled_from(["event", "attendance", "training_status"]),
        st.sampled_from(["new_hire_training", "attended", "completed"]),
        max_size=3,
    )
    | _json
)
_records = st.one_of(
    st.fixed_dictionaries({"timestamp": _timestamps, "base": _bases, "value": _values}),
    st.fixed_dictionaries({"timestamp": _timestamps, "fields": _fields}),
    st.fixed_dictionaries(
        {}, optional={"timestamp": _timestamps, "base": _bases, "value": _values, "fields": _fields}
    ),
).map(json.dumps)

_lines = st.one_of(
    st.text(max_size=40),
    _json.map(json.dumps),
    _records,
    st.tuples(st.sampled_from(["﻿", " ", "\t"]), _records).map("".join),
    _records.flatmap(lambda line: st.integers(0, len(line)).map(lambda n: line[:n])),
    st.integers(0, 3000).map(lambda n: "[" * n + "]" * n),
)


def _no_constants(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


def _json_error(text: str) -> str | None:
    """What json.loads says about a line it cannot decode, else None."""
    try:
        json.loads(text, parse_constant=_no_constants)
    except RecursionError:
        return "JSON nested too deeply"
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.lists(_lines, max_size=8))
def test_ingest_never_raises_and_rejects_each_bad_line_once(lines):
    log = ingest_lines(lines, "log", MODEL)
    assert all(d.code.startswith("I") for d in log.diagnostics)
    non_blank = [n for n, line in enumerate(lines, 1) if line.strip()]
    rejected = {d.span.line for d in log.diagnostics}
    assert len(rejected) == len(log.diagnostics) and rejected <= set(non_blank)
    accepted = [n for n in non_blank if n not in rejected]
    direct = [record.line for record in log.records]
    assert direct == sorted(set(direct)) and set(direct) <= set(accepted)
    assert len(accepted) == len(direct) + sum(n for days in log.events.values() for n in days.values())
    messages = {d.span.line: d.message for d in log.diagnostics}
    for n, line in enumerate(lines, 1):
        error = _json_error(line.strip()) if line.strip() else None
        if error is not None:
            assert messages[n] == f"malformed log line: {error}"


@settings(max_examples=40, deadline=None)
@given(st.lists(_lines, max_size=6), st.sampled_from(["eval", "report"]))
def test_cli_exits_0_1_or_2_on_any_log(lines, command):
    period = ["--metric", "all", "--period", "2014-01"] if command == "eval" else ["--from", "2014-01", "--to", "2014-03"]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "log.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines))
        out = os.path.join(directory, "payload")
        with redirect_stderr(io.StringIO()):
            code = cli.main([command, "--out", out, MODEL_PATH, "--measurements", path, *period])
    assert code in (0, 1, 2)

"""The tallying ingest against the oracle that keeps one record per line.

`pipeline.ingest_lines` classifies each distinct line text once and keeps raw
events as counts per (date, fields). On logs full of repeated lines, blank
lines, CRLF endings, repeated bad lines and spacing json.dumps never writes,
its tally, DIRECT entries and diagnostics must equal what
`oracles.ingest_lines_by_decoding` gives line by line, and a log split into
several files must give the rescanning oracle's SUM and LATEST bindings.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import direct_entries, event_tally, ingest_lines_by_decoding, scan_aggregate
from symbiosis_kit import pipeline
from symbiosis_kit.model import Granularity, MetricDef, ReportingSchedule
from symbiosis_kit.parser import parse
from symbiosis_kit.pipeline import aggregate, ingest_lines, ingest_many

MODEL, _ = parse(
    """
    base ev { description: "d" mode: count where: kind = "x" }
    base tot { description: "d" mode: direct aggregation: sum }
    base g { description: "d" mode: direct aggregation: latest }
    """
)

_days = st.sampled_from(["2014-01-05", "2014-01-31", "2014-02-01", "2014-02-14"])
_values = st.sampled_from([0, -0.0, 1, 2.5, 0.1, 0.2, 0.3, 1e16, -1e16, 7])
_event = st.builds(
    lambda day, fields: {"timestamp": day, "fields": fields},
    _days,
    st.dictionaries(st.sampled_from(["kind", "status"]), st.sampled_from(["x", "y", "ok"]), max_size=2),
)
_direct = st.builds(
    lambda day, base, value: {"timestamp": day, "base": base, "value": value},
    _days, st.sampled_from(["tot", "g"]), _values,
)
_bad = st.sampled_from(
    [
        "garbage",
        "[1, 2]",
        '{"timestamp": "2014-01-05"}',
        '{"timestamp": "2014-02-30", "fields": {"kind": "x"}}',
        '{"timestamp": "2014-01-05", "base": "nope", "value": 1}',
        '{"timestamp": "2014-01-05", "base": "ev", "value": 1}',
        '{"timestamp": "2014-01-05", "base": "tot", "value": 1e400}',
        '{"timestamp": "2014-01-05", "fields": {"kind": 1}}',
    ]
)
# json.dumps' own spacing, none at all, and more than it writes
_spacings = st.sampled_from([(", ", ": "), (",", ":"), (" ,  ", " : ")])
_good = st.tuples(_event | _direct, _spacings).map(lambda t: json.dumps(t[0], separators=t[1]))
_decorated = st.tuples(
    st.sampled_from(["", "", " ", "\t"]), _good | _bad, st.sampled_from(["", "", "\r", " "])
).map("".join)
_blank = st.sampled_from(["", " ", "\t", "\r"])
# A few distinct lines, each used any number of times, so most logs repeat lines.
_logs = st.lists(_decorated | _blank, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40)
)


def _entry_key(entry) -> tuple:
    return (entry.timestamp, entry.base, repr(entry.value), entry.line)


@settings(max_examples=300, deadline=None)
@given(_logs)
def test_tally_ingest_gives_what_the_per_line_oracle_gives(lines):
    log = ingest_lines(lines, "log", MODEL)
    oracle = ingest_lines_by_decoding(lines, "log", MODEL)
    assert dict(log.events) == dict(event_tally(oracle.records))
    assert [_entry_key(e) for e in log.records] == [_entry_key(e) for e in direct_entries(oracle.records)]
    assert log.diagnostics == oracle.diagnostics


METRIC = MetricDef(
    id="M", description="d", goal="", answers=(), uses=("ev", "tot", "g"), method="m",
    function=None, bands=(), schedule=ReportingSchedule(Granularity.DAILY, Granularity.MONTHLY),
    stakeholders=(),
)


@settings(max_examples=150, deadline=None)
@given(
    _logs,
    st.lists(st.integers(0, 40), max_size=3),
    st.sampled_from(["\n", "\r\n"]),
)
def test_split_log_gives_the_oracle_bindings(tmp_path_factory, lines, cuts, newline):
    cuts = sorted({min(cut, len(lines)) for cut in cuts})
    directory = tmp_path_factory.mktemp("logs")
    paths = []
    for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, len(lines)])):
        path = Path(directory) / f"log{i}.jsonl"
        path.write_bytes("".join(line + newline for line in lines[a:b]).encode("utf-8"))
        paths.append(str(path))
    log = ingest_many(paths, MODEL)
    # Reading turns CR and CRLF into "\n", so a line ending in "\r" comes back as two.
    records = tuple(
        record
        for path in paths
        for record in ingest_lines_by_decoding(Path(path).read_text("utf-8").split("\n"), path, MODEL).records
    )
    for period in ("2014-01", "2014-02", "2014-Q1", "2014-01-05"):
        assert aggregate(log, METRIC, period, MODEL) == scan_aggregate(records, METRIC, period, MODEL)


def test_repeated_event_line_is_classified_once_and_tallied():
    line = json.dumps({"timestamp": "2014-01-05", "fields": {"kind": "x"}})
    with mock.patch.object(pipeline, "_classify_line", wraps=pipeline._classify_line) as classify:
        log = ingest_lines([line] * 50, "log", MODEL)
    assert classify.call_count == 1
    assert log.events == {(dt.date(2014, 1, 5), (("kind", "x"),)): 50}
    assert not log.records and not log.diagnostics


def test_repeated_direct_and_bad_lines_are_classified_once_and_numbered_each_time():
    direct = json.dumps({"timestamp": "2014-01-05", "base": "tot", "value": 2})
    lines = [direct, "garbage"] * 25
    with mock.patch.object(pipeline, "_classify_line", wraps=pipeline._classify_line) as classify:
        log = ingest_lines(lines, "log", MODEL)
    assert classify.call_count == 2
    assert [entry.line for entry in log.records] == list(range(1, 51, 2))
    assert [d.span.line for d in log.diagnostics] == list(range(2, 51, 2))

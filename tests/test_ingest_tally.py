"""The tallying ingest against the oracle that keeps one record per line.

`pipeline.ingest_lines` classifies each distinct line text once and keeps raw
events as counts per date under each set of fields. On logs full of repeated
lines, blank lines, CRLF endings, repeated bad lines and spacing json.dumps
never writes, its tally, DIRECT entries and diagnostics must equal what
`oracles.ingest_lines_by_decoding` gives line by line, and a log split into
several files must give the rescanning oracle's SUM and LATEST bindings.
`ingest_many` shares its date and remainder caches and one tally across its
files: what it gives must equal the oracle's per-file results put together,
and a date or `fields` text repeated across files is decoded once.
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
from symbiosis_kit.diagnostics import sort_key
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


def _write_files(directory: Path, lines: list[str], cuts: list[int], newlines: list[str]) -> list[str]:
    """`lines` cut at `cuts` into files, the i-th ending its lines with newlines[i]."""
    cuts = sorted({min(cut, len(lines)) for cut in cuts})
    paths = []
    for i, (a, b) in enumerate(zip([0, *cuts], [*cuts, len(lines)])):
        path = directory / f"log{i}.jsonl"
        path.write_bytes("".join(line + newlines[i] for line in lines[a:b]).encode("utf-8"))
        paths.append(str(path))
    return paths


@settings(max_examples=150, deadline=None)
@given(
    _logs,
    st.lists(st.integers(0, 40), max_size=3),
    st.sampled_from(["\n", "\r\n"]),
)
def test_split_log_gives_the_oracle_bindings(tmp_path_factory, lines, cuts, newline):
    paths = _write_files(tmp_path_factory.mktemp("logs"), lines, cuts, [newline] * 4)
    log = ingest_many(paths, MODEL)
    # Reading turns CR and CRLF into "\n", so a line ending in "\r" comes back as two.
    records = tuple(
        record
        for path in paths
        for record in ingest_lines_by_decoding(Path(path).read_text("utf-8").split("\n"), path, MODEL).records
    )
    for period in ("2014-01", "2014-02", "2014-Q1", "2014-01-05"):
        assert aggregate(log, METRIC, period, MODEL) == scan_aggregate(records, METRIC, period, MODEL)


# Event lines drawn from a few dates (one impossible) and `fields` objects
# (one with a non-string value), so that files repeat each other's texts.
_shared_event = st.builds(
    lambda day, fields: json.dumps({"timestamp": day, "fields": fields}),
    st.sampled_from(["2014-01-05", "2014-02-01", "2014-02-30"]),
    st.sampled_from([{"kind": "x"}, {"kind": "x", "status": "ok"}, {"status": "y"}, {"kind": 1}, {}]),
)
_shared_logs = st.lists(_shared_event | _decorated | _blank, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60)
)


@settings(max_examples=200, deadline=None)
@given(
    _shared_logs,
    st.lists(st.integers(0, 60), max_size=3),
    st.lists(st.sampled_from(["\n", "\r\n"]), min_size=4, max_size=4),
)
def test_many_files_give_the_per_file_oracle_put_together(tmp_path_factory, lines, cuts, newlines):
    paths = _write_files(tmp_path_factory.mktemp("logs"), lines, cuts, newlines)
    log = ingest_many(paths, MODEL)
    # Reading turns CR and CRLF into "\n", so a line ending in "\r" comes back as two.
    oracles = [ingest_lines_by_decoding(Path(path).read_text("utf-8").split("\n"), path, MODEL) for path in paths]
    assert log.events == event_tally(tuple(record for oracle in oracles for record in oracle.records))
    assert [_entry_key(e) for e in log.records] == [
        _entry_key(e) for oracle in oracles for e in direct_entries(oracle.records)
    ]
    assert log.diagnostics == tuple(sorted((d for oracle in oracles for d in oracle.diagnostics), key=sort_key))


def test_many_files_decode_each_date_and_fields_text_once(tmp_path):
    paths = []
    for month in ("01", "02", "03"):
        path = tmp_path / f"2014-{month}.jsonl"
        path.write_text(
            "".join(
                json.dumps({"timestamp": day, "fields": {"kind": kind}}) + "\n"
                for day in ("2014-01-05", "2014-01-06")
                for kind in ("x", "y")
            ),
            "utf-8",
        )
        paths.append(str(path))
    with mock.patch.object(pipeline, "_decoded_field_set", wraps=pipeline._decoded_field_set) as field_sets, \
            mock.patch.object(pipeline, "_date_or_none", wraps=pipeline._date_or_none) as dates:
        log = ingest_many(paths, MODEL)
    assert field_sets.call_count == 2
    assert dates.call_count == 2
    assert log.events == {(("kind", kind),): {dt.date(2014, 1, day): 3 for day in (5, 6)} for kind in ("x", "y")}
    assert not log.records and not log.diagnostics


def _counted_state() -> tuple[pipeline._IngestState, mock.Mock, mock.Mock]:
    """An ingest state whose date and remainder lookups are counted, not cached,
    so every time `ingest_lines` classifies a text on its fast path shows."""
    dates, remainders = mock.Mock(wraps=pipeline._date_or_none), mock.Mock(wraps=pipeline._remainder)
    return pipeline._IngestState(dates, remainders, {}), dates, remainders


def test_repeated_event_line_is_classified_once_and_tallied():
    line = json.dumps({"timestamp": "2014-01-05", "fields": {"kind": "x"}})
    state, dates, remainders = _counted_state()
    with mock.patch.object(pipeline, "_decode_line", wraps=pipeline._decode_line) as decode:
        log = ingest_lines([line] * 50, "log", MODEL, state)
    assert (dates.call_count, remainders.call_count, decode.call_count) == (1, 1, 0)
    assert log.events == {(("kind", "x"),): {dt.date(2014, 1, 5): 50}}
    assert not log.records and not log.diagnostics


def test_repeated_direct_and_bad_lines_are_classified_once_and_numbered_each_time():
    direct = json.dumps({"timestamp": "2014-01-05", "base": "tot", "value": 2})
    lines = [direct, "garbage"] * 25
    state, dates, remainders = _counted_state()
    with mock.patch.object(pipeline, "_decode_line", wraps=pipeline._decode_line) as decode:
        log = ingest_lines(lines, "log", MODEL, state)
    assert (dates.call_count, remainders.call_count, decode.call_count) == (1, 1, 1)
    assert decode.call_args == mock.call("garbage")
    assert [entry.line for entry in log.records] == list(range(1, 51, 2))
    assert [d.span.line for d in log.diagnostics] == list(range(2, 51, 2))

"""The ingest fast path against an ingest that decodes every line in full.

Lines in the two shapes json.dumps writes, and near-misses of them, must give
the same DIRECT entries (values compared by repr, so the sign of zero
counts), the same raw-event tally and the same diagnostics as
`oracles.ingest_lines_by_decoding`. Each list of lines must also ingest as
`oracles.ingest_lines_by_one_pattern` ingests it, line by line with the
whole-line pattern that the sliced fast path replaced, and a line padded
with blanks must ingest as the bare line does.
"""

from __future__ import annotations

import datetime as dt
import json
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import _SHAPES, direct_entries, event_tally, ingest_lines_by_decoding, ingest_lines_by_one_pattern
from symbiosis_kit import pipeline
from symbiosis_kit.model import Aggregation, BaseMeasurementDef, Model
from symbiosis_kit.parser import parse
from symbiosis_kit.pipeline import DirectEntry, ingest_lines

MODEL, _ = parse(
    """
    base ev { description: "d" mode: count where: kind = "x" }
    base tot { description: "d" mode: direct aggregation: sum }
    base g.1 { description: "d" mode: direct aggregation: latest }
    """
)


def _escaped(text: str) -> str:
    """A JSON string literal with every character written as a \\u escape."""
    return '"' + "".join(f"\\u{ord(c):04x}" for c in text) + '"'


def _literals(texts: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """JSON string literals of `texts`, written with and without escapes."""
    return texts.flatmap(
        lambda text: st.sampled_from(
            [json.dumps(text), json.dumps(text, ensure_ascii=False), _escaped(text), f'"{text}"']
        )
    )


_dates = _literals(
    st.sampled_from(
        [
            "2014-01-05", "2016-02-29", "9999-12-31", "2014-02-30", "2014-13-01", "0000-01-01",
            "2014-1-5", "20140105", "2014W023", "2014-01-05T00:00", " 2014-01-05", "",
            "\u0662\u0660\u0661\u0664-\u0660\u0661-\u0660\u0665",
        ]
    )
    | st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", fullmatch=True)
)
_bases = _literals(
    st.sampled_from(["tot", "g.1", "ev", "nope", "", "TOT", "t\u00f6t", 't"ot', "t\\ot", "t\x01ot"])
)
_numbers = (
    st.sampled_from(
        [
            "0", "-0", "-0.0", "0.0", "-0e3", "1.5", "-2.25e3", "1E2", "1e+16", "1e400", "-1e400",
            "1e-400", "1" + "0" * 400, "1" * 4301, "0123", "-01", "1.", ".5", "-", "+1", "1e",
            "NaN", "Infinity", "-Infinity", "true", "null", '"9"', "[1]", "\u0661",
        ]
    )
    | st.integers().map(str)
    | st.integers(10**19, 10**30).map(lambda n: str(-n))
    | st.floats().map(json.dumps)
)
_field_values = (
    st.sampled_from(["x", "attended", "", "}", '"', "\u00e9"]).map(json.dumps)
    | st.sampled_from(["1", "null", "true", "[]", '["x"]', '{"a": "x"}', "[" * 3000 + "]" * 3000])
)
_field_keys = _literals(st.sampled_from(["kind", "event", "", "\u00e9", "k}", 'k"']))
_fields = st.lists(st.tuples(_field_keys, _field_values), max_size=3).flatmap(
    lambda items: st.sampled_from([", ", ",", " , "]).map(
        lambda sep: "{" + sep.join(f"{key}: {value}" for key, value in items) + "}"
    )
) | st.sampled_from(
    [
        "{}", "{ }", '{"kind": "x", "kind": "y"}', '{"kind": "x"}, "fields": {"kind": "y"}',
        '{"kind": "x"', '{"kind": "x"}}', '[{"kind": "x"}]', "null", '"x"',
    ]
)

# (key, value text) pairs of one record, in json.dumps' order.
_direct_items = st.tuples(_dates, _bases, _numbers).map(
    lambda t: [('"timestamp"', t[0]), ('"base"', t[1]), ('"value"', t[2])]
)
_event_items = st.tuples(_dates, _fields).map(lambda t: [('"timestamp"', t[0]), ('"fields"', t[1])])


def _line(items: list[tuple[str, str]], item_sep: str = ", ", key_sep: str = ": ") -> str:
    return "{" + item_sep.join(f"{key}{key_sep}{value}" for key, value in items) + "}"


_items = _direct_items | _event_items
# Records that the fast path accepts, so that most examples hold some.
_good_items = st.one_of(
    st.tuples(st.dates(), st.sampled_from(["tot", "g.1"]), st.integers() | st.floats()).map(
        lambda t: [('"timestamp"', f'"{t[0]}"'), ('"base"', f'"{t[1]}"'), ('"value"', json.dumps(t[2]))]
    ),
    st.tuples(st.dates(), st.dictionaries(st.sampled_from(["kind", "a"]), st.sampled_from(["x", "y"]))).map(
        lambda t: [('"timestamp"', f'"{t[0]}"'), ('"fields"', json.dumps(t[1]))]
    ),
)
_near_items = st.one_of(
    _items.flatmap(st.permutations),
    _items.flatmap(lambda items: st.sampled_from(items).map(lambda extra: [*items, extra])),
    _items.flatmap(lambda items: st.integers(0, len(items) - 1).map(lambda i: items[:i] + items[i + 1 :])),
    st.tuples(_event_items, _numbers).map(lambda t: [*t[0], ('"value"', t[1])]),
    # the first key spelled another way, or replaced by another key
    st.tuples(_items, _literals(st.sampled_from(["timestamp", "base", "value", "fields"]))).map(
        lambda t: [(t[1], t[0][0][1]), *t[0][1:]]
    ),
)
_separated = st.tuples(
    _near_items | _items,
    st.sampled_from([", ", ",", " , ", ",\t", ",  "]),
    st.sampled_from([": ", ":", " : ", ":\t"]),
).map(lambda t: _line(*t))
_lines = st.one_of(
    _good_items.map(_line),
    _items.map(_line),
    _separated,
    st.tuples(
        st.sampled_from(["", " ", "\t", "\ufeff", "\r", "\xa0"]),
        _items.map(_line),
        st.sampled_from(["", " ", "\r", "\t", "\x00", ","]),
    ).map("".join),
    st.just(""),
)


def _entry_key(entry: DirectEntry) -> tuple:
    return (entry.timestamp, entry.base, repr(entry.value), entry.line)


def _assert_same_as_decoding(lines: list[str]) -> None:
    fast = ingest_lines(lines, "log", MODEL)
    slow = ingest_lines_by_decoding(lines, "log", MODEL)
    assert [_entry_key(r) for r in fast.records] == [_entry_key(r) for r in direct_entries(slow.records)]
    assert dict(fast.events) == dict(event_tally(slow.records))
    assert fast.diagnostics == slow.diagnostics


# For an unknown base and a count base, a non-finite value, an invalid date and
# a valid line, each in json.dumps' shape and in a compact one. Only the valid
# lines get I002: the value (I001) and the date (I003) are checked first.
_BAD_BASE_LINES = [
    template.format(date=date, base=base, value=value)
    for base in ("nope", "ev")
    for template in (
        '{{"timestamp": "{date}", "base": "{base}", "value": {value}}}',
        '{{"timestamp":"{date}","base":"{base}","value":{value}}}',
    )
    for date, value in (("2014-01-05", "1e400"), ("2014-02-30", "1"), ("2014-01-05", "1"))
]


def test_a_bad_base_is_reported_only_after_the_value_and_the_date():
    log = ingest_lines(_BAD_BASE_LINES, "log", MODEL)
    codes = {d.span.line: d.code for d in log.diagnostics}
    assert [codes[line] for line in range(1, len(_BAD_BASE_LINES) + 1)] == ["I001", "I003", "I002"] * 4
    assert not log.records and not log.events


@settings(max_examples=300, deadline=None)
@given(st.lists(_lines, max_size=6))
@example(_BAD_BASE_LINES)
@example(
    [
        '{"timestamp": "2014-01-05", "base": "tot", "value": -0}',
        '{"timestamp": "2014-01-05", "base": "tot", "value": -0.0}',
        '{"timestamp": "2014-01-05", "base": "tot", "value": 1e400}',
        '{"timestamp": "2014-01-05", "base": "tot", "value": 1' + "0" * 400 + "}",
        '{"timestamp": "2014-01-05", "base": "tot", "value": 123456789012345678901234567}',
        '{"timestamp": "2014-01-05", "base": "\\u0074ot", "value": 1}',
        '{"timestamp": "2014-01-05", "fields": {"\\u006bind": "x"}}',
        '{"base": "tot", "timestamp": "2014-01-05", "value": 1}',
        '{"timestamp": "2014-01-05", "base": "tot", "value": 1, "value": 2}',
        '{"timestamp": "2014-01-05", "base": "tot", "value": 0123}',
        '{"timestamp": "2014-01-05", "fields": {"kind": "x", "kind": "y"}}',
        '{"timestamp": "2014-01-05", "fields": {"kind": "x"}, "fields": {"kind": "y"}}',
        '{"timestamp": "2014-01-05", "fields": {"kind": ' + "[" * 100_000 + "]" * 100_000 + "}}",
        '{"timestamp":"2014-01-05","fields":{"kind":"x"}}',
        '\ufeff{"timestamp": "2014-01-05", "fields": {"kind": "x"}}',
        '{"timestamp": "2014-01-05", "fields": {"kind": "x"}}\r',
        '{"timestamp": "2014-01-05", "fields": {"kind": {"nested": "x"}}}',
        '{"timestamp": "2014-01-05", "fields": {"kind": 1}}',
        '{"timestamp": "2014-02-30", "fields": {"kind": "x"}}',
        '{"timestamp": "2014-01-05", "base": "nope", "value": 1}',
        '{"timestamp": "2014-01-05", "base": "ev", "value": 1}',
    ]
)
def test_fast_path_gives_what_decoding_gives(lines):
    _assert_same_as_decoding(lines)


_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*", fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(
    st.dates().map(str),
    _identifiers,
    st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    st.dictionaries(st.text(max_size=5), st.text(max_size=5), max_size=3),
)
def test_json_dumps_writes_the_fast_shapes(day, base, value, fields):
    lines = [
        json.dumps({"timestamp": day, "base": base, "value": value}),
        json.dumps({"timestamp": day, "fields": fields}),
    ]
    for line in lines:
        assert _SHAPES.fullmatch(line) is not None
    # and the package takes its fast path: it never decodes such a line in full
    model = Model(bases={base: BaseMeasurementDef(base, aggregation=Aggregation.SUM)})
    with mock.patch.object(pipeline, "_decode_line", side_effect=AssertionError("decoded in full")):
        log = ingest_lines(lines, "log", model)
    date = dt.date.fromisoformat(day)
    assert [_entry_key(entry) for entry in log.records] == [(date, base, repr(float(value)), 1)]
    assert log.events == {tuple(sorted(fields.items())): {date: 1}}
    assert not log.diagnostics


def test_events_and_entries_share_dates_and_field_sets():
    lines = [
        json.dumps({"timestamp": day, "fields": {"kind": "x", "a": "b"}})
        for day in ("2014-01-05", "2014-01-05", "2014-01-06", "2014-01-05")
    ]
    lines.append('{"timestamp": "2014-01-05", "base": "tot", "value": -0}')
    log = ingest_lines(lines, "log", MODEL)
    ((fields, days),) = log.events.items()
    assert fields == (("a", "b"), ("kind", "x"))
    (day5, n5), (day6, n6) = days.items()
    assert (day5, n5, day6, n6) == (dt.date(2014, 1, 5), 3, dt.date(2014, 1, 6), 1)
    (entry,) = log.records
    assert entry.timestamp is day5
    assert repr(entry.value) == "0.0"


# -- the sliced fast path against the one-pattern copy --------------------------
# `ingest_lines` compares a line's prefix and separator by slicing and
# classifies the text after its date through a cache;
# `oracles.ingest_lines_by_one_pattern` classifies each line with the
# whole-line pattern the slices replaced. Each list of lines shares one set of
# fresh caches on each side, so later lines hit what earlier ones put there.

_record_dates = (
    st.dates().map(str)
    | st.sampled_from(["2014-02-30", "2014-13-01", "0000-01-01", "2014-1-5", "20140105", "2014W023", ""])
    | st.text(max_size=12)
)
_record_values = (
    st.sampled_from([-0, -0.0, 0, True, False, None, "9", "x"])
    | st.floats()
    | st.integers(10**18, 10**400)
    | st.integers(-3, 3)
)
_record_fields = (
    st.dictionaries(st.text(max_size=4), st.text(max_size=4) | _record_values, max_size=3)
    | st.lists(st.text(max_size=3), max_size=2)
    | st.text(max_size=6)
)
_records = st.one_of(
    st.tuples(_record_dates, st.sampled_from(["tot", "g.1", "nope", "", 'a"b', "a\\b", "\x01"]), _record_values).map(
        lambda t: {"timestamp": t[0], "base": t[1], "value": t[2]}
    ),
    st.tuples(_record_dates, _record_fields).map(lambda t: {"timestamp": t[0], "fields": t[1]}),
)
_dumped = st.tuples(_records, st.sampled_from(["", "}", " ", "\t"])).map(lambda t: json.dumps(t[0]) + t[1])
_pieces = st.sampled_from(
    [
        '{"timestamp": "', '", ', '"fields": ', '"base": "', '"value": ', "{", "}", '"', "\\", "\r", " ",
        "1", "-0", "1.5e3", '"kind": "x"', "2014-01-05", "2014-02-30", "2014-1-05",
    ]
)
_joined = st.lists(_pieces | _record_dates, max_size=12).map("".join)


def _ingested_by_both(lines: list[str]) -> tuple[str, str]:
    fast = ingest_lines(lines, "log", MODEL)
    records, events, diagnostics = ingest_lines_by_one_pattern(lines, "log", MODEL)
    # repr tells 0.0 from -0.0; the tallies are compared as dicts, without their order
    assert fast.events == events
    return repr((fast.records, fast.diagnostics)), repr((tuple(records), diagnostics))


@settings(max_examples=300, deadline=None)
@given(st.lists(_dumped | _joined, max_size=8))
@example(
    [
        '{"timestamp": "2014-01-05", "base": "tot", "value": -0}',
        '{"timestamp": "2014-01-06", "base": "tot", "value": -0}',
    ]
)
@example(['{"timestamp": "2014-01-05"; "fields": {}}', '{"timestamp": "2014-01-0",  "fields": {}}'])
def test_sliced_fast_path_classifies_as_the_one_pattern_copy(lines):
    fast, slow = _ingested_by_both(lines)
    assert fast == slow


# -- padded lines ------------------------------------------------------------------
# The fast path tests a line as read, so a json.dumps-shaped line with blanks
# around it is stripped and decoded in full; it must ingest as the bare line
# does, line numbers included.

_pads = st.text(st.sampled_from([" ", "\t", "\x0b", "\x0c", "\xa0", "\u3000"]), max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_pads, _records.map(json.dumps) | _good_items.map(_line), _pads), max_size=6))
@example(
    [
        ("\u3000", '{"timestamp": "2014-01-05", "fields": {"kind": "x"}}', ""),
        ("", '{"timestamp": "2014-01-05", "fields": {"kind": "x"}}', "\xa0"),
        ("", '{"timestamp": "2014-01-05", "fields": {"kind": "x"}}', ""),
        ("\x0b", '{"timestamp": "2014-01-05", "base": "tot", "value": -0.0}', "\x0c"),
        ("\t", '{"timestamp": "2014-01-05", "base": "nope", "value": 1}', " "),
        (" ", '{"timestamp": "2014-02-30", "base": "tot", "value": 1}', ""),
    ]
)
def test_a_padded_line_ingests_as_the_bare_line(padded):
    bare = ingest_lines([line for _, line, _ in padded], "log", MODEL)
    log = ingest_lines(["".join(parts) for parts in padded], "log", MODEL)
    assert [_entry_key(entry) for entry in log.records] == [_entry_key(entry) for entry in bare.records]
    assert log.events == bare.events
    assert log.diagnostics == bare.diagnostics

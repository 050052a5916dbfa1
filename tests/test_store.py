"""The date-indexed measurement store against the record-rescanning oracle."""

from __future__ import annotations

import datetime as dt
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from symbiosis_kit.graph import build_graph
from symbiosis_kit.model import (
    Aggregation,
    BaseMeasurementDef,
    Granularity,
    MetricDef,
    Model,
    ReportingSchedule,
    SourceMode,
)
from symbiosis_kit import periods
from symbiosis_kit.parser import parse
from symbiosis_kit.periods import period_of
from symbiosis_kit.pipeline import _density_warnings, aggregate, evaluate_period, ingest_lines, ingest_many

from oracles import ingest_lines_by_decoding, scan_aggregate, scan_density_warnings

BASES = {
    "c_any": BaseMeasurementDef("c_any", "d", SourceMode.COUNT, ()),
    "c_kind": BaseMeasurementDef("c_kind", "d", SourceMode.COUNT, (("kind", "x"),)),
    "c_both": BaseMeasurementDef(
        "c_both", "d", SourceMode.COUNT, (("kind", "y"), ("status", "ok"))
    ),
    "d_sum": BaseMeasurementDef("d_sum", "d", SourceMode.DIRECT, (), Aggregation.SUM),
    "d_latest": BaseMeasurementDef("d_latest", "d", SourceMode.DIRECT, (), Aggregation.LATEST),
}
GRANULARITIES = sorted(Granularity, key=lambda g: g.ordinal)
FIRST_DAY = dt.date(2014, 8, 25)  # ISO weeks, months, quarters and a year all straddle this span
DAYS = 140


def _metric(uses: tuple[str, ...], collection: Granularity, reporting: Granularity) -> MetricDef:
    return MetricDef(
        id="M", description="d", goal="", answers=(), uses=uses, method="m",
        function=None, bands=(), schedule=ReportingSchedule(collection, reporting),
        stakeholders=(),
    )


def _write_logs(directory: str, files: list[list[str]]) -> list[str]:
    paths = []
    for i, lines in enumerate(files):
        path = Path(directory) / f"log{i}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def _decoded_records(files: list[list[str]]) -> tuple:
    """The oracle's records of several logs, one per accepted line, in ingest order."""
    model = Model(bases=BASES)
    return tuple(record for lines in files for record in ingest_lines_by_decoding(lines, "log", model).records)


_day = st.integers(0, DAYS - 1).map(lambda n: (FIRST_DAY + dt.timedelta(days=n)).isoformat())
_value = st.one_of(
    st.integers(0, 3),  # repeated, so the text after a date repeats across files
    st.integers(-10**6, 10**6),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0]),  # sums that depend on order
)
_direct_line = st.builds(
    lambda ts, base, value: json.dumps({"timestamp": ts, "base": base, "value": value}),
    _day, st.sampled_from(["d_sum", "d_latest"]), _value,
)
_fields = st.dictionaries(
    st.sampled_from(["kind", "status", "other"]), st.sampled_from(["x", "y", "ok", "no"]), max_size=3
)
# An `id` from a large pool makes nearly every event's field set its own.
_unique_fields = st.tuples(_fields, st.integers(0, 10**9)).map(lambda t: {**t[0], "id": str(t[1])})


def _event_line(fields: st.SearchStrategy[dict]) -> st.SearchStrategy[str]:
    return st.builds(lambda ts, f: json.dumps({"timestamp": ts, "fields": f}), _day, fields)


# Logs with few field sets, and logs where some or all events get an `id`.
_files = st.sampled_from([_fields, _fields | _unique_fields, _unique_fields]).flatmap(
    lambda fields: st.lists(
        st.lists(st.one_of(_direct_line, _event_line(fields)), max_size=25), min_size=1, max_size=3
    )
)


@st.composite
def _query(draw):
    """A period key of any granularity, with a collection granularity at or below it."""
    reporting = draw(st.sampled_from(GRANULARITIES))
    collection = draw(st.sampled_from(GRANULARITIES[: reporting.ordinal + 1]))
    day = FIRST_DAY + dt.timedelta(days=draw(st.integers(-10, DAYS + 10)))
    uses = tuple(draw(st.lists(st.sampled_from(sorted(BASES)), min_size=1, max_size=3, unique=True)))
    return period_of(day, reporting), _metric(uses, collection, reporting)


@settings(max_examples=150, deadline=None)
@given(files=_files, queries=st.lists(_query(), min_size=1, max_size=4))
def test_store_matches_rescanning_oracle(files, queries):
    with tempfile.TemporaryDirectory() as directory:
        log = ingest_many(_write_logs(directory, files), Model(bases=BASES))
    assert not log.diagnostics
    records = _decoded_records(files)
    for key, metric in queries:
        model = Model(bases=BASES, metrics={"M": metric})
        expected = scan_aggregate(records, metric, key, model)
        assert aggregate(log, metric, key, model) == expected
        result = evaluate_period(model, build_graph(model), log, "M", key)
        assert dict(result.bindings) == expected
        assert result.density_warnings == scan_density_warnings(records, metric, key, model)


def test_sum_adds_in_ingest_order_across_files(tmp_path):
    """0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit; ingest order decides."""
    model = Model(bases=BASES)
    metric = _metric(("d_sum",), Granularity.MONTHLY, Granularity.MONTHLY)

    def line(day: str, value: float) -> str:
        return json.dumps({"timestamp": f"2014-09-{day}", "base": "d_sum", "value": value})

    # dates run against ingest order, so date order would give the other sum
    paths = _write_logs(str(tmp_path), [[line("30", 0.1)], [line("20", 0.2), line("10", 0.3)]])
    log = ingest_many(paths, model)
    assert aggregate(log, metric, "2014-09", model)["d_sum"] == (0.1 + 0.2) + 0.3
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    reversed_log = ingest_many(paths[::-1], model)
    assert aggregate(reversed_log, metric, "2014-09", model)["d_sum"] == (0.2 + 0.3) + 0.1


def test_latest_tie_on_date_and_line_goes_to_the_first_file(tmp_path):
    model = Model(bases=BASES)
    metric = _metric(("d_latest",), Granularity.MONTHLY, Granularity.MONTHLY)

    def line(value: float) -> str:
        return json.dumps({"timestamp": "2014-09-15", "base": "d_latest", "value": value})

    paths = _write_logs(str(tmp_path), [[line(1)], [line(2)]])
    assert aggregate(ingest_many(paths, model), metric, "2014-09", model)["d_latest"] == 1.0
    assert aggregate(ingest_many(paths[::-1], model), metric, "2014-09", model)["d_latest"] == 2.0
    # a later line beats an earlier file on the same date
    paths = _write_logs(str(tmp_path), [[line(1)], ["", line(2)]])
    assert aggregate(ingest_many(paths, model), metric, "2014-09", model)["d_latest"] == 2.0


def test_empty_range_counts_zero_and_binds_no_direct_value():
    model = Model(bases=BASES)
    metric = _metric(tuple(BASES), Granularity.DAILY, Granularity.DAILY)
    log = ingest_lines(
        [json.dumps({"timestamp": "2014-09-15", "base": "d_sum", "value": 3})], "log", model
    )
    assert aggregate(log, metric, "2014-09-16", model) == {"c_any": 0.0, "c_kind": 0.0, "c_both": 0.0}
    assert aggregate(log, metric, "9999-W52", model) == {"c_any": 0.0, "c_kind": 0.0, "c_both": 0.0}


WEEKLY_MODEL = """
stakeholder s { name: "S" }
universe org { facets: a }
objective BO1 { object: "x" scope: org.* purpose: "p" viewpoint: s context: "c" }
goal MG1 { object: "g" scope: "s" purpose: "p" focus: "f" criteria: "c"
           viewpoint: s context: "c" measures: BO1 }
question Q1 { goal: MG1 text: "?" status: answered }
base ev { description: "d" mode: count where: kind = "x" }
metric W {
    description: "d" goal: MG1 answers: Q1 uses: ev method: "m" function: ev
    domain: [0, 1000] band: [0, 1000] -> all { log s }
    schedule: weekly / monthly
    stakeholders: s
}
"""


def _weekly_density(days: tuple[str, ...], period: str) -> tuple[str, ...]:
    model, diags = parse(WEEKLY_MODEL)
    assert not diags
    lines = [json.dumps({"timestamp": day, "fields": {"kind": "x"}}) for day in days]
    log = ingest_lines(lines, "log", model)
    warnings = evaluate_period(model, build_graph(model), log, "W", period).density_warnings
    records = ingest_lines_by_decoding(lines, "log", model).records
    assert warnings == scan_density_warnings(records, model.metrics["W"], period, model)
    return warnings


def test_straddling_week_is_judged_on_its_days_inside_the_month():
    # 2014-W40 runs Sep 29 - Oct 5; its only record (Oct 3) is outside September
    days = ("2014-09-03", "2014-09-10", "2014-09-17", "2014-09-24", "2014-10-03")
    assert _weekly_density(days, "2014-09") == (
        "collection period 2014-W40 inside 2014-09 has no records for metric W",
    )
    # in October the same week has its record
    assert "2014-W40" not in "".join(_weekly_density(days, "2014-10"))
    # a record before the month does not cover the week that starts it
    days = ("2014-09-30", "2014-10-08", "2014-10-15", "2014-10-22", "2014-10-29")
    assert _weekly_density(days, "2014-10") == (
        "collection period 2014-W40 inside 2014-10 has no records for metric W",
    )


# -- density windows from the period cache against the day-walking oracle -----
# `_density_warnings` reads each sub-period's window from the periods cache;
# `oracles.scan_density_warnings` finds them by walking every day. Seeded
# sparse logs leave some sub-periods empty, at both ends of the calendar too.

G = Granularity
_DENSITY_SCHEDULES = [
    (G.WEEKLY, G.MONTHLY), (G.DAILY, G.MONTHLY), (G.MONTHLY, G.QUARTERLY),
    (G.WEEKLY, G.QUARTERLY), (G.DAILY, G.WEEKLY), (G.QUARTERLY, G.YEARLY), (G.WEEKLY, G.YEARLY),
]
_SPAN_STARTS = [dt.date.min, dt.date(2014, 1, 1), dt.date(9999, 1, 1)]


def _seeded_lines(rng: random.Random, first: dt.date, days: int) -> list[str]:
    density = rng.choice([0.02, 0.2, 0.7])
    lines = []
    for offset in range(days):
        if rng.random() < density:
            ts = (first + dt.timedelta(days=offset)).isoformat()
            if rng.random() < 0.5:
                lines.append(json.dumps({"timestamp": ts, "base": rng.choice(["d_sum", "d_latest"]), "value": 1}))
            else:
                fields = {"kind": rng.choice(["x", "y"]), "status": rng.choice(["ok", "no"])}
                lines.append(json.dumps({"timestamp": ts, "fields": fields}))
    return lines


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    schedule=st.sampled_from(_DENSITY_SCHEDULES),
    start=st.sampled_from(_SPAN_STARTS),
    cold=st.booleans(),
)
def test_density_warnings_match_the_day_walking_oracle_on_seeded_logs(seed, schedule, start, cold):
    if cold:
        periods.period.cache_clear()
        periods.subperiod_windows.cache_clear()
    rng = random.Random(seed)
    days = min(400, (dt.date.max - start).days + 1)
    lines = _seeded_lines(rng, start, days)
    log = ingest_lines(lines, "log", Model(bases=BASES))
    records = _decoded_records([lines])
    uses = tuple(rng.sample(sorted(BASES), rng.randint(1, 3)))
    metric = _metric(uses, *schedule)
    model = Model(bases=BASES, metrics={"M": metric})
    keys = sorted({period_of(start + dt.timedelta(days=n), schedule[1]) for n in range(days)})
    for key in keys:
        expected = scan_density_warnings(records, metric, key, model)
        assert _density_warnings(metric, log, key, model) == expected
        assert _density_warnings(metric, log, key, model) == expected  # from the warm cache

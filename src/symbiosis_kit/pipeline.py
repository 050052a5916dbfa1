"""Measurement ingestion, aggregation, evaluation and action routing.

Logs are JSON Lines. Two record shapes:

    {"timestamp": "2014-09-03", "base": "bm_days_since_review", "value": 40}
    {"timestamp": "2014-09-03", "fields": {"event": "training", "status": "completed"}}

The first feeds DIRECT base measurements, the second raw events counted by
COUNT bases. Bad lines become I-diagnostics; good lines still flow.

Cost model: each log is read once at ingest. Identical lines are tallied
first, and each distinct line text is classified once: a line in one of the
two shapes exactly as json.dumps writes them costs one regex match, with
its date parsed once per distinct date string and its fields decoded once
per distinct text; every other line is decoded in full. Those date and
fields caches, and the raw-event tally, belong to one ingest_many call and
serve all of its files, so a date or fields text repeated across monthly
logs is decoded once per command, not once per file. Raw events are kept
as counts per (date, fields), never as one record per line. One more pass
over each file's lines gives line numbers only where they are kept: to
each DIRECT entry and to each rejected line, which gets its own diagnostic.
The first aggregation over a log builds its MeasurementStore from the
DIRECT entries and the tally, and each COUNT filter set is matched once
against each distinct set of event fields. After that a COUNT binding for
any period or density sub-period costs two bisects, O(log n) in the log's
distinct dates, and a DIRECT binding costs time proportional to the base's
entries inside the period. Period bounds and density windows come from the
periods module's per-key cache.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache, cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Callable, NamedTuple

from . import evaluator, periods
from .diagnostics import Diagnostic, Severity, SourceSpan, sort_key
from .evaluator import EvaluationError, SumOverflow
from .graph import TraceabilityGraph, objective_ancestors_ordered
from .model import (
    ActionKind,
    Aggregation,
    BaseMeasurementDef,
    InterpretationBand,
    MetricDef,
    Model,
    SourceMode,
)

_E = Severity.ERROR


class DirectEntry(NamedTuple):
    """One reported value for a DIRECT base measurement."""

    timestamp: dt.date
    base: str
    value: float
    line: int  # 1-based line in the log; later lines win LATEST ties


FieldSet = tuple[tuple[str, str], ...]
Event = tuple[dt.date, FieldSet]  # a raw event's date and sorted fields


class _LogFields(NamedTuple):
    records: tuple[DirectEntry, ...]
    events: dict[Event, int]
    diagnostics: tuple[Diagnostic, ...]


class MeasurementLog(_LogFields):
    """What ingest accepted, and its diagnostics.

    `records` holds the DIRECT entries in ingest order (file order, then
    line); `events` maps each raw event's (date, fields) to how many lines
    logged it, and holds no zero counts. `store` indexes both by date on
    first use and lives as long as the log does.
    """

    @cached_property
    def store(self) -> MeasurementStore:
        return MeasurementStore(self.records, self.events)


def _bad_line(filename: str, line_no: int, message: str, code: str = "I001") -> Diagnostic:
    span = SourceSpan(filename, line_no, 1)
    return Diagnostic(code, _E, message, span, None)


# A log date is exactly YYYY-MM-DD in ASCII digits: date.fromisoformat alone
# also takes "20140903" and "2014W363" on Python 3.11 but not on 3.10.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_timestamp(text: object) -> dt.date:
    if not isinstance(text, str):
        raise ValueError(f"timestamp must be a string, got {type(text).__name__}")
    if not _DATE_RE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def _finite_number(value: object) -> float | None:
    """`value` as a float, or None unless it is a finite JSON number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


def _field_set(fields: object) -> FieldSet | None:
    """The sorted items of a JSON object mapping strings to strings, else None."""
    if not isinstance(fields, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in fields.items()
    ):
        return None
    return tuple(sorted(fields.items()))


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


# CPython's default cap on the digits int() converts. The decoder's own
# message for a longer integer differs between Python versions and advises
# a call (`sys.set_int_max_str_digits`) no CLI user can make, so such an
# integer gets this one.
_MAX_INT_DIGITS = 4300


def _parse_int(text: str) -> int:
    if len(text) - text.startswith("-") > _MAX_INT_DIGITS:
        raise ValueError(f"integer with more than {_MAX_INT_DIGITS} digits")
    return int(text)


# One decoder for every line: json.loads builds a new one per call whenever
# it is given a hook such as parse_constant.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_int=_parse_int)


def _decode(line: str) -> object:
    """json.loads(line, parse_constant=_reject_constant), errors included.

    Nesting deeper than the decoder's recursion limit is a ValueError too.
    """
    if line.startswith("\ufeff"):  # checked by json.loads, not by the decoder
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        return _DECODER.decode(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# What one line text is, as `_classify_line` tags it: a raw event (its
# Event), a DIRECT value (date, base, value) or a rejected line (message,
# I-code).
_EVENT, _DIRECT, _REJECTED = "event", "direct", "rejected"
Classified = tuple[str, tuple]


def _rejected(message: str, code: str = "I001") -> Classified:
    return _REJECTED, (message, code)


def _decode_line(line: str, model: Model) -> Classified:
    """One stripped, non-blank log line decoded in full and classified."""
    try:
        obj = _decode(line)
    except ValueError as exc:
        return _rejected(f"malformed log line: {exc}")
    if not isinstance(obj, dict):
        return _rejected("malformed log line: not a JSON object")

    try:
        timestamp = _parse_timestamp(obj.get("timestamp"))
    except ValueError as exc:
        return _rejected(f"invalid date: {exc}", code="I003")

    has_base = "base" in obj
    if has_base == ("fields" in obj):
        return _rejected("malformed log line: need exactly one of 'base' or 'fields'")

    if not has_base:
        fields = _field_set(obj["fields"])
        if fields is None:
            return _rejected("malformed log line: 'fields' must map strings to strings")
        return _EVENT, (timestamp, fields)

    base_id = obj["base"]
    if not isinstance(base_id, str):
        return _rejected("malformed log line: 'base' must be a string")
    number = _finite_number(obj.get("value"))
    if number is None:
        return _rejected("malformed log line: 'value' must be a finite number")
    base_def = model.bases.get(base_id)
    if base_def is None:
        return _rejected(f"unknown base measurement {base_id!r}", code="I002")
    if base_def.mode is not SourceMode.DIRECT:
        return _rejected(
            f"base measurement {base_id!r} is not DIRECT mode and cannot take reported values",
            code="I002",
        )
    return _DIRECT, (timestamp, base_id, number)


# The two record shapes exactly as json.dumps writes them, with a base name
# free of escapes and control characters. Groups: date, base, number, the
# number's fraction and exponent (empty for an integer), fields object.
_SHAPES = re.compile(
    r'\{"timestamp": "([0-9]{4}-[0-9]{2}-[0-9]{2})", '
    r'(?:"base": "([^"\\\x00-\x1f]*)", '
    r'"value": (-?(?:0|[1-9][0-9]*)((?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?))'
    r'|"fields": (\{.*\}))\}'
)


def _date_or_none(text: str) -> dt.date | None:
    try:
        return _parse_timestamp(text)
    except ValueError:
        return None


def _decoded_field_set(text: str) -> FieldSet | None:
    try:
        return _field_set(_decode(text))
    except ValueError:
        return None


def _json_number(text: str, fraction_or_exponent: str) -> float | None:
    """What the decoder and `_finite_number` make of the JSON number `text`.

    Integer text goes through int() as in the decoder, so "-0" is 0.0.
    """
    try:
        return _finite_number(float(text) if fraction_or_exponent else int(text))
    except ValueError:  # an integer with more digits than int() converts
        return None


def _classify_line(
    text: str,
    model: Model,
    dates: Callable[[str], dt.date | None],
    field_sets: Callable[[str], FieldSet | None],
) -> Classified | None:
    """One log line text classified; None when it is blank.

    A line in one of the two shapes json.dumps writes takes the fast path:
    one regex match, its date from `dates` and its `fields` object from
    `field_sets`. Every other line, and a fast-path line that fails a
    check, is decoded in full by `_decode_line`.
    """
    stripped = text.strip()
    if not stripped:
        return None
    shape = _SHAPES.fullmatch(stripped)
    if shape is not None and (timestamp := dates(shape[1])) is not None:
        _, base_id, number, fraction, fields_text = shape.groups()
        if fields_text is not None:
            fields = field_sets(fields_text)
            if fields is not None:
                return _EVENT, (timestamp, fields)
        elif (base := model.bases.get(base_id)) is not None and base.mode is SourceMode.DIRECT:
            value = _json_number(number, fraction)
            if value is not None:
                return _DIRECT, (timestamp, base_id, value)
    return _decode_line(stripped, model)


class _IngestState(NamedTuple):
    """What the files of one ingest share: date and `fields` caches, and one tally."""

    dates: Callable[[str], dt.date | None]
    field_sets: Callable[[str], FieldSet | None]
    events: dict[Event, int]


def _new_state() -> _IngestState:
    return _IngestState(cache(_date_or_none), cache(_decoded_field_set), {})


def ingest_lines(
    lines: list[str], filename: str, model: Model, state: _IngestState | None = None
) -> MeasurementLog:
    """The raw-event tally, DIRECT entries and I-diagnostics of one log's lines.

    Identical lines are tallied first and each distinct text is classified
    once, with dates parsed once per distinct date string and `fields`
    objects decoded once per distinct text, so events share date and field
    set objects. A raw event only adds its lines' count to the tally. One
    pass over the lines then gives each DIRECT entry its line number and
    each rejected line its own diagnostic.

    Without a `state` the caches and the tally are this call's own. With
    one (as `ingest_many` passes for every file), dates and `fields` texts
    already decoded for an earlier file are not decoded again, and the
    events are added to the state's tally, which the returned log holds;
    its records and diagnostics are still this file's alone.
    """
    dates, field_sets, events = _new_state() if state is None else state
    numbered: dict[str, Classified] = {}  # DIRECT and rejected line texts
    for text, count in Counter(lines).items():
        classified = _classify_line(text, model, dates, field_sets)
        if classified is None:
            continue
        kind, item = classified
        if kind is _EVENT:
            events[item] = events.get(item, 0) + count
        else:
            numbered[text] = classified
    records: list[DirectEntry] = []
    diags: list[Diagnostic] = []
    for line_no, text in enumerate(lines, start=1):
        classified = numbered.get(text)
        if classified is None:
            continue
        kind, item = classified
        if kind is _DIRECT:
            records.append(DirectEntry(*item, line_no))
        else:
            diags.append(_bad_line(filename, line_no, *item))
    return MeasurementLog(tuple(records), events, tuple(sorted(diags, key=sort_key)))


def _read_lines(path: str) -> list[str]:
    """A log file's lines, read as `ingest` documents."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            exc.reason += f" in {path}"  # ingest_many reads many files: name the bad one
            raise
    # Only "\n" (to which reading turned CR and CRLF) ends a line: unlike
    # `str.splitlines`, not U+2028, U+0085 or a form feed inside a record.
    lines = text.split("\n")
    if not lines[-1]:  # the text ends with a line end (or is empty), which starts no line
        lines.pop()
    return lines


def ingest(path: str, model: Model) -> MeasurementLog:
    """Ingest one UTF-8 log file; raises OSError or UnicodeDecodeError when unreadable.

    A byte order mark at the start of the file is dropped, so the first line
    reads like every other.
    """
    return ingest_lines(_read_lines(path), path, model)


def ingest_many(paths: list[str], model: Model) -> MeasurementLog:
    """Logs ingested in the order given: DIRECT entries concatenated, raw events in one tally.

    Each file goes through `ingest_lines` once, and all of them share one
    ingest state: a date string or `fields` text is decoded once per call,
    however many files repeat it, and every file's events go straight into
    one tally.
    """
    state = _new_state()
    records: list[DirectEntry] = []
    diags: list[Diagnostic] = []
    for path in paths:
        log = ingest_lines(_read_lines(path), path, model, state)
        records.extend(log.records)
        diags.extend(log.diagnostics)
    return MeasurementLog(tuple(records), state.events, tuple(sorted(diags, key=sort_key)))


# -- aggregation --------------------------------------------------------------


class MeasurementStore:
    """Date-indexed view of one log's DIRECT entries and raw-event tally.

    Built in one pass over the DIRECT entries, grouped by base and sorted
    by (date, line, later ingest first); the event tally is kept as it is.
    The first query for a COUNT filter set matches each distinct field set
    against it once and keeps the hits as sorted dates plus prefix sums.
    Every query is then two bisects over one base's dates.
    """

    def __init__(self, records: tuple[DirectEntry, ...], events: dict[Event, int]) -> None:
        by_base: dict[str, list[tuple[dt.date, int, int, float]]] = {}
        for seq, entry in enumerate(records):
            by_base.setdefault(entry.base, []).append((entry.timestamp, entry.line, -seq, entry.value))
        self._events = events
        self._direct: dict[str, tuple[list[dt.date], list[tuple[dt.date, int, int, float]]]] = {}
        for base_id, entries in by_base.items():
            entries.sort()
            self._direct[base_id] = ([entry[0] for entry in entries], entries)
        self._counts: dict[FieldSet, tuple[list[dt.date], list[int]]] = {}

    def count(self, filters: FieldSet, first: dt.date, last: dt.date) -> int:
        """Raw events dated first..last whose fields match every filter."""
        index = self._counts.get(filters)
        if index is None:
            matches: dict[FieldSet, bool] = {}
            hits: Counter[dt.date] = Counter()
            for (day, fields), n in self._events.items():
                match = matches.get(fields)
                if match is None:
                    match = matches[fields] = all(pair in fields for pair in filters)
                if match:
                    hits[day] += n
            dates = sorted(hits)
            index = self._counts[filters] = (dates, [0, *accumulate(hits[d] for d in dates)])
        dates, prefix = index
        return prefix[bisect_right(dates, last)] - prefix[bisect_left(dates, first)]

    def direct(
        self, base_id: str, first: dt.date, last: dt.date
    ) -> list[tuple[dt.date, int, int, float]]:
        """(date, line, -ingest sequence, value) of the base's entries dated first..last, sorted."""
        dates, entries = self._direct.get(base_id, ([], []))
        return entries[bisect_left(dates, first) : bisect_right(dates, last)]


def _aggregate_base(
    base: BaseMeasurementDef,
    store: MeasurementStore,
    first: dt.date,
    last: dt.date,
) -> float | None:
    """Aggregate one base over first..last; None when no DIRECT data.

    Raises SumOverflow when a SUM of finite values leaves the float range.
    """
    if base.mode is SourceMode.COUNT:
        return float(store.count(base.filters, first, last))
    entries = store.direct(base.id, first, last)
    if not entries:
        return None
    if base.aggregation is Aggregation.SUM:
        # float addition is not associative: add in ingest order
        in_order = sorted(entries, key=itemgetter(2), reverse=True)
        total = float(sum(value for _, _, _, value in in_order))
        if not math.isfinite(total):
            raise SumOverflow(base.id)
        return total
    # LATEST: maximal (timestamp, line); on a tie the first ingested wins
    return entries[-1][3]


def aggregate(
    log: MeasurementLog,
    metric: MetricDef,
    period: str,
    model: Model,
) -> dict[str, float]:
    """Bindings for the metric's bases over one period.

    Bases with no in-period data are absent; evaluation then reports
    MissingBinding rather than inventing a zero. A SUM that overflows
    raises SumOverflow, which evaluation reports as the result's failure.
    """
    _, first, last = periods.period(period)
    bindings: dict[str, float] = {}
    for base_id in metric.uses:
        base = model.bases.get(base_id)
        if base is None:
            continue  # validation reports V002; don't crash mid-pipeline
        value = _aggregate_base(base, log.store, first, last)
        if value is not None:
            bindings[base_id] = value
    return bindings


# -- evaluation ---------------------------------------------------------------


class EvaluationResult(NamedTuple):
    metric_id: str
    period: str
    bindings: tuple[tuple[str, float], ...]
    value: float | None
    failure: str | None
    band: InterpretationBand | None
    affected_objectives: tuple[str, ...]
    density_warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_json_obj(self) -> dict:
        return {
            "metric": self.metric_id,
            "period": self.period,
            "bindings": {name: value for name, value in self.bindings},
            "value": self.value,
            "failure": self.failure,
            "band": self.band.label if self.band else None,
            "affected_objectives": list(self.affected_objectives),
            "density_warnings": list(self.density_warnings),
        }


def _density_warnings(
    metric: MetricDef,
    log: MeasurementLog,
    period: str,
    model: Model,
) -> tuple[str, ...]:
    """Collection sub-periods of `period` with zero metric-relevant records.

    Only meaningful when evaluating at reporting granularity; a single
    collection period is its own (trivially checked) sub-period. A
    sub-period that straddles the period's edge (an ISO week across a
    month end) is checked only on its days inside the period.
    """
    schedule = metric.schedule
    if schedule is None:
        return ()
    try:
        windows = periods.subperiod_windows(period, schedule.collection)
    except periods.PeriodError:
        return ()
    if len(windows) == 1:  # the period is its own collection period
        return ()
    base_defs = [model.bases[b] for b in metric.uses if b in model.bases]
    store = log.store
    warnings: list[str] = []
    for subkey, first, last in windows:
        if not any(
            store.count(base.filters, first, last)
            if base.mode is SourceMode.COUNT
            else store.direct(base.id, first, last)
            for base in base_defs
        ):
            warnings.append(
                f"collection period {subkey} inside {period} has no records for metric {metric.id}"
            )
    return tuple(warnings)


def evaluate_period(
    model: Model,
    graph: TraceabilityGraph,
    log: MeasurementLog,
    metric_id: str,
    period: str,
) -> EvaluationResult:
    metric = model.metrics.get(metric_id)
    if metric is None:
        raise KeyError(f"unknown metric {metric_id!r}")
    granularity = periods.period(period).granularity
    if metric.schedule is not None and not metric.schedule.runs_at(granularity):
        raise periods.PeriodError(
            f"period {period!r} is {granularity.value}; metric {metric_id!r} "
            f"runs on {metric.schedule.notation()}"
        )

    affected = tuple(objective_ancestors_ordered(graph, metric_id))
    density = _density_warnings(metric, log, period, model)

    bindings: dict[str, float] = {}
    value: float | None = None
    failure: str | None = None
    band: InterpretationBand | None = None
    try:
        bindings = aggregate(log, metric, period, model)
        value = evaluator.evaluate_metric(metric, bindings)
        band = evaluator.classify(metric, value)
    except EvaluationError as exc:
        # exactly one of value/failure is ever set
        value = None
        band = None
        failure = str(exc)
    return EvaluationResult(
        metric_id=metric_id,
        period=period,
        bindings=tuple(sorted(bindings.items())),
        value=value,
        failure=failure,
        band=band,
        affected_objectives=affected,
        density_warnings=density,
    )


# -- action routing -----------------------------------------------------------


class ActionDirective(NamedTuple):
    kind: ActionKind
    stakeholders: tuple[str, ...]
    metric_id: str
    period: str
    band_label: str | None
    message: str

    def to_json_obj(self) -> dict:
        return {
            "action": self.kind.value,
            "stakeholders": list(self.stakeholders),
            "metric": self.metric_id,
            "period": self.period,
            "band": self.band_label,
            "message": self.message,
        }


def route_result(result: EvaluationResult, model: Model) -> list[ActionDirective]:
    """The directives one result sends, whether it classified or failed.

    A classified result expands its band's actions, ordered LOG < NOTIFY <
    ESCALATE and stable within a kind (band declaration order), each to the
    stakeholders `Model.stakeholders_of` gives (UnresolvedTarget, with the
    target's V002 text, on an invalid model). A failed evaluation is itself
    a finding: it goes to the metric's own stakeholders at NOTIFY level.
    """
    band = result.band
    if band is None:
        metric = model.metrics.get(result.metric_id)
        detail = result.failure or "no classification"
        have = ", ".join(name for name, _ in result.bindings) or "none"
        message = (
            f"metric {result.metric_id} period {result.period} could not be "
            f"evaluated: {detail} (bindings present: {have})"
        )
        return [
            ActionDirective(
                ActionKind.NOTIFY, metric.stakeholders if metric else (), result.metric_id, result.period, None, message
            )
        ]
    affected = ", ".join(result.affected_objectives) or "none"
    message = (
        f"metric {result.metric_id} period {result.period}: value {result.value} "
        f"in band '{band.label}'; affected objectives: {affected}"
    )
    directives = (
        ActionDirective(
            action.kind, model.stakeholders_of(action.target), result.metric_id, result.period, band.label, message
        )
        for action in band.actions
    )
    return sorted(directives, key=lambda d: d.kind.urgency)  # stable: declaration order within kind

"""Measurement ingestion, aggregation, evaluation and action routing.

Logs are JSON Lines. Two record shapes:

    {"timestamp": "2014-09-03", "base": "bm_days_since_review", "value": 40}
    {"timestamp": "2014-09-03", "fields": {"event": "training", "status": "completed"}}

The first feeds DIRECT base measurements, the second raw events counted by
COUNT bases. Bad lines become I-diagnostics; good lines still flow.
`evaluate_metrics` evaluates metrics over period keys, skipping a metric
whose schedule refuses a key; `route_result` routes each result's actions.

Cost model: each log is read once at ingest. Identical lines are tallied
first, and each distinct line text is classified once, inside the loop that
tallies it. A text in one of the two shapes exactly as json.dumps writes
them is checked as read, by slicing: its `{"timestamp": "` prefix and the
`", ` after its 10-character date are compared, the date is parsed once per
distinct date string, and the text after that separator is matched and
decoded once per distinct text, so a line that repeats another's text after
a new date costs two slices and two cache lookups. Every other text is
stripped and, unless blank, decoded in full. A DIRECT line's base is
checked (I002) once per distinct line text, after every I001 and I003
check. Those date and remainder caches, and the raw-event tally, belong to
one ingest_many call and serve all of its files, so a date or remainder
repeated across monthly logs is decoded once per command, not once per
file. Raw events are kept as counts per date under each distinct set of
fields, never as one record per line. One more pass over each file's lines
gives line numbers only where they are kept: to each DIRECT entry and to
each rejected line, which gets its own diagnostic. The MeasurementLog
answers aggregation's two date queries itself: its `direct` indexes the
DIRECT entries by base on first use, and its `count` tests each distinct
field set once against a COUNT filter set and adds up the day counts of
those that match; both indexes live as long as the log. After that a COUNT
binding for any period costs two bisects, O(log n) in the log's distinct
dates, and a DIRECT binding costs time proportional to the base's entries
inside the period. The density check reads the same indexes through
`days`: it fetches each base's sorted dates once per result, and a
collection window costs one bisect per base until a base has records in
it. `evaluate_metrics` walks a metric's objective chain once per call, on
its first key, and passes it on to the metric's later keys. Period bounds
and density windows come from the periods module's per-key cache.
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


FieldSet = tuple[tuple[str, str], ...]  # a raw event's sorted fields
Indexed = tuple[dt.date, int, int, float]  # a DIRECT entry's date, line, -ingest sequence, value


class _LogFields(NamedTuple):
    records: tuple[DirectEntry, ...]
    events: dict[FieldSet, dict[dt.date, int]]
    diagnostics: tuple[Diagnostic, ...]


class MeasurementLog(_LogFields):
    """What ingest accepted, and its diagnostics, answering aggregation's date queries.

    `records` holds the DIRECT entries in ingest order (file order, then
    line); `events` maps each distinct set of raw-event fields to how many
    lines logged it on each date, and holds no zero counts. The first
    `direct` query groups the DIRECT entries by base, sorted by (date, line,
    later ingest first); the first `count` query for a filter set tests each
    field set against it once, adds up the day counts of those that match
    and keeps them as sorted dates plus prefix sums.
    Every query is then two bisects over one index's dates, and `days`
    hands out an index's dates for the density check to bisect itself.
    Both indexes live as long as the log does.
    """

    @cached_property
    def _direct(self) -> dict[str, tuple[list[dt.date], list[Indexed]]]:
        by_base: dict[str, list[Indexed]] = {}
        for seq, entry in enumerate(self.records):
            by_base.setdefault(entry.base, []).append((entry.timestamp, entry.line, -seq, entry.value))
        for entries in by_base.values():
            entries.sort()
        return {base_id: ([entry[0] for entry in entries], entries) for base_id, entries in by_base.items()}

    @cached_property
    def _counts(self) -> dict[FieldSet, tuple[list[dt.date], list[int]]]:
        return {}

    def _count_index(self, filters: FieldSet) -> tuple[list[dt.date], list[int]]:
        """The dates with a raw event matching every filter, and prefix sums of their counts."""
        index = self._counts.get(filters)
        if index is None:
            hits: dict[dt.date, int] = {}
            for fields, days in self.events.items():
                if all(pair in fields for pair in filters):
                    for day, n in days.items():
                        hits[day] = hits.get(day, 0) + n
            dates = sorted(hits)
            index = self._counts[filters] = (dates, [0, *accumulate(hits[d] for d in dates)])
        return index

    def count(self, filters: FieldSet, first: dt.date, last: dt.date) -> int:
        """Raw events dated first..last whose fields match every filter."""
        dates, prefix = self._count_index(filters)
        return prefix[bisect_right(dates, last)] - prefix[bisect_left(dates, first)]

    def direct(self, base_id: str, first: dt.date, last: dt.date) -> list[Indexed]:
        """The base's entries dated first..last, sorted."""
        index = self._direct.get(base_id)
        if index is None:
            return []
        dates, entries = index
        return entries[bisect_left(dates, first) : bisect_right(dates, last)]

    def days(self, base: BaseMeasurementDef) -> list[dt.date]:
        """The sorted dates on which `base` has a record: a day with a raw event
        its filters match, or a DIRECT entry (repeated once per entry that day).

        The list is the index's own, shared by every caller: read it, do not change it.
        """
        if base.mode is SourceMode.COUNT:
            return self._count_index(base.filters)[0]
        index = self._direct.get(base.id)
        return [] if index is None else index[0]


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


# What one line text is: its date (None when rejected) and what it says
# after the date, as `_remainder` and `_decode_line` tag it: a raw event
# (_EVENT, fields), a DIRECT value (_DIRECT, base, value) or a rejected line
# (_REJECTED, message, I-code).
_EVENT, _DIRECT, _REJECTED = "event", "direct", "rejected"
Classified = tuple[dt.date | None, tuple]


def _rejected(message: str, code: str = "I001") -> Classified:
    return None, (_REJECTED, message, code)


def _decode_line(line: str) -> Classified:
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
        return timestamp, (_EVENT, fields)

    base_id = obj["base"]
    if not isinstance(base_id, str):
        return _rejected("malformed log line: 'base' must be a string")
    number = _finite_number(obj.get("value"))
    if number is None:
        return _rejected("malformed log line: 'value' must be a finite number")
    return timestamp, (_DIRECT, base_id, number)


# The two record shapes exactly as json.dumps writes them are `_PREFIX`, a
# 10-character date, `_SEPARATOR` and a remainder that `_REMAINDER` matches,
# with a base name free of escapes and control characters. A date is taken
# only as YYYY-MM-DD (`_DATE_RE`), so slicing at fixed offsets accepts what
# one pattern over the whole line would. Groups: base, number, the number's
# fraction and exponent (empty for an integer), fields object.
_PREFIX, _SEPARATOR = '{"timestamp": "', '", '
_REMAINDER = re.compile(
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


def _remainder(text: str) -> tuple | None:
    """The text after a line's date and separator, classified on its own.

    A raw event's remainder gives (_EVENT, fields) and a DIRECT value's
    gives (_DIRECT, base, value). None when the text is not in json.dumps'
    shape, or its fields or value fail a check.
    """
    shape = _REMAINDER.fullmatch(text)
    if shape is None:
        return None
    base_id, number, fraction, fields_text = shape.groups()
    if fields_text is not None:
        fields = _decoded_field_set(fields_text)
        return None if fields is None else (_EVENT, fields)
    value = _json_number(number, fraction)
    return None if value is None else (_DIRECT, base_id, value)


class _IngestState(NamedTuple):
    """What the files of one ingest share: a cache of dates, one of the texts
    after a line's date, and one tally."""

    dates: Callable[[str], dt.date | None]
    remainders: Callable[[str], tuple | None]
    events: dict[FieldSet, dict[dt.date, int]]


def _new_state() -> _IngestState:
    return _IngestState(cache(_date_or_none), cache(_remainder), {})


def ingest_lines(
    lines: list[str], filename: str, model: Model, state: _IngestState | None = None
) -> MeasurementLog:
    """The raw-event tally, DIRECT entries and I-diagnostics of one log's lines.

    Identical lines are tallied first and each distinct text is classified
    once. A text in one of the two shapes json.dumps writes is tested as
    read: its prefix and separator compared by slicing, its date from the
    `dates` cache and the text after the separator from `remainders`, so
    events share date and field set objects. Any other text is stripped,
    skipped if blank and otherwise decoded in full by `_decode_line`. A raw
    event from either only adds its lines' count to its field set's count
    for its date. One pass over the lines then gives each DIRECT entry its
    line number and each rejected line its own diagnostic.

    Without a `state` the caches and the tally are this call's own. With
    one (as `ingest_many` passes for every file), dates and remainders
    already decoded for an earlier file are not decoded again, and the
    events are added to the state's tally, and the returned log's `events`
    is that command-wide tally, not this file's; its records and
    diagnostics are still this file's alone.
    """
    dates, remainders, events = _new_state() if state is None else state
    numbered: dict[str, Classified] = {}  # DIRECT and rejected line texts
    for text, count in Counter(lines).items():
        # _PREFIX is 15 characters, the date 10 and _SEPARATOR 3
        if (
            text[:15] != _PREFIX
            or text[25:28] != _SEPARATOR
            or (day := dates(text[15:25])) is None
            or (rest := remainders(text[28:])) is None
        ):
            stripped = text.strip()
            if not stripped:
                continue
            day, rest = _decode_line(stripped)
        kind = rest[0]
        if kind is _EVENT:
            fields = rest[1]
            days = events.get(fields)
            if days is None:
                events[fields] = {day: count}
            else:
                days[day] = days.get(day, 0) + count
            continue
        if kind is _DIRECT and (base := model.bases.get(rest[1])) is None:
            day, rest = _rejected(f"unknown base measurement {rest[1]!r}", "I002")
        elif kind is _DIRECT and base.mode is not SourceMode.DIRECT:
            message = f"base measurement {rest[1]!r} is not DIRECT mode and cannot take reported values"
            day, rest = _rejected(message, "I002")
        numbered[text] = day, rest
    records: list[DirectEntry] = []
    diags: list[Diagnostic] = []
    for line_no, text in enumerate(lines, start=1):
        classified = numbered.get(text)
        if classified is None:
            continue
        day, rest = classified
        if rest[0] is _DIRECT:
            records.append(DirectEntry(day, rest[1], rest[2], line_no))
        else:
            diags.append(_bad_line(filename, line_no, *rest[1:]))
    return MeasurementLog(tuple(records), events, tuple(sorted(diags, key=sort_key)))


def _read_lines(path: str) -> list[str]:
    """A UTF-8 log file's lines; raises OSError or UnicodeDecodeError when unreadable.

    A byte order mark at the start of the file is dropped, so the first line
    reads like every other.
    """
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


def ingest_many(paths: list[str], model: Model) -> MeasurementLog:
    """Logs ingested in the order given: DIRECT entries concatenated, raw events in one tally.

    Each file goes through `ingest_lines` once, and all of them share one
    ingest state: a date string or remainder is decoded once per call,
    however many files repeat it, and every file's events go straight into
    one tally. One log file is `ingest_many([path], model)`.
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


def _aggregate_base(
    base: BaseMeasurementDef,
    log: MeasurementLog,
    first: dt.date,
    last: dt.date,
) -> float | None:
    """Aggregate one base over first..last; None when no DIRECT data.

    Raises SumOverflow when a SUM of finite values leaves the float range.
    """
    if base.mode is SourceMode.COUNT:
        return float(log.count(base.filters, first, last))
    entries = log.direct(base.id, first, last)
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
        value = _aggregate_base(base, log, first, last)
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
        """The result's JSON object. Its tuples are handed over, not copied: `json.dumps`
        writes a tuple as a list."""
        return {
            "metric": self.metric_id,
            "period": self.period,
            "bindings": dict(self.bindings),
            "value": self.value,
            "failure": self.failure,
            "band": self.band.label if self.band else None,
            "affected_objectives": self.affected_objectives,
            "density_warnings": self.density_warnings,
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

    Each base's dates (`MeasurementLog.days`) are fetched once per call, and
    a window costs one bisect per base until a base has a date inside it.
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
    base_days = [log.days(model.bases[b]) for b in metric.uses if b in model.bases]
    warnings: list[str] = []
    for subkey, first, last in windows:
        for days in base_days:
            i = bisect_left(days, first)
            if i < len(days) and days[i] <= last:
                break
        else:
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
    affected: tuple[str, ...] | None = None,
) -> EvaluationResult:
    """One metric over one period key: its bindings, value or failure, band,
    affected objectives and density warnings.

    Raises KeyError for an unknown metric, and PeriodError when the metric's
    schedule does not run at the key's granularity. `affected` is the
    metric's `objective_ancestors_ordered`, walked here when not given; it
    belongs to the metric, not to the period, so `evaluate_metrics` passes a
    metric's first result's on to its later keys.
    """
    metric = model.metrics.get(metric_id)
    if metric is None:
        raise KeyError(f"unknown metric {metric_id!r}")
    granularity = periods.period(period).granularity
    if metric.schedule is not None and not metric.schedule.runs_at(granularity):
        raise periods.PeriodError(
            f"period {period!r} is {granularity.value}; metric {metric_id!r} "
            f"runs on {metric.schedule.notation()}"
        )

    if affected is None:
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
    return EvaluationResult(metric_id, period, tuple(sorted(bindings.items())), value, failure, band, affected, density)


def evaluate_metrics(
    model: Model, graph: TraceabilityGraph, log: MeasurementLog, metric_ids: list[str], keys: list[str]
) -> tuple[list[EvaluationResult], list[tuple[str, periods.PeriodError]]]:
    """Each metric over each period key, metric by metric, both in the order given. A metric
    that `evaluate_period` refuses for any key (its schedule) gives no results, only a
    (metric id, PeriodError) pair in the skipped list.

    A metric's objective chain is walked once per call: its first key's
    `affected_objectives` are passed on to its later keys."""
    results: list[EvaluationResult] = []
    skipped: list[tuple[str, periods.PeriodError]] = []
    for metric_id in metric_ids:
        own: list[EvaluationResult] = []
        try:
            for key in keys:
                affected = own[0].affected_objectives if own else None
                own.append(evaluate_period(model, graph, log, metric_id, key, affected))
        except periods.PeriodError as exc:  # kept without the traceback, whose frames would hold this call's locals
            skipped.append((metric_id, exc.with_traceback(None)))
        else:
            results.extend(own)
    return results, skipped


# -- action routing -----------------------------------------------------------


class ActionDirective(NamedTuple):
    kind: ActionKind
    stakeholders: tuple[str, ...]
    metric_id: str
    period: str
    band_label: str | None
    message: str

    def to_json_obj(self) -> dict:
        """The directive's JSON object, its stakeholders tuple handed over, not copied."""
        return {
            "action": self.kind.value,
            "stakeholders": self.stakeholders,
            "metric": self.metric_id,
            "period": self.period,
            "band": self.band_label,
            "message": self.message,
        }


def route_result(result: EvaluationResult, model: Model) -> list[ActionDirective]:
    """The directives one result sends, whether it classified or failed.

    A classified result expands its band's actions, each to the stakeholders
    `Model.stakeholders_of` gives. Targets are resolved in band declaration
    order, so on an invalid model the first unresolved one raises its
    UnresolvedTarget, with the target's V002 text. The directives are then
    ordered LOG < NOTIFY < ESCALATE, stable within a kind; a one-action band
    needs no sort. A failed evaluation is itself a finding: it goes to the
    metric's own stakeholders at NOTIFY level.
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
    directives = [
        ActionDirective(
            action.kind, model.stakeholders_of(action.target), result.metric_id, result.period, band.label, message
        )
        for action in band.actions
    ]
    if len(directives) > 1:
        directives.sort(key=lambda d: d.kind.urgency)  # stable: declaration order within kind
    return directives

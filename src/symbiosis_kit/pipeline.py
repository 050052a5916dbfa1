"""Measurement ingestion, aggregation, evaluation and action routing.

Logs are JSON Lines. Two record shapes:

    {"timestamp": "2014-09-03", "base": "bm_days_since_review", "value": 40}
    {"timestamp": "2014-09-03", "fields": {"event": "training", "status": "completed"}}

The first feeds DIRECT base measurements, the second raw events counted by
COUNT bases. Bad lines become I-diagnostics; good lines still flow.

Cost model: each log is read once at ingest. A line in one of the two
shapes exactly as json.dumps writes them costs one regex match; its date is
parsed once per distinct date string and its fields decoded once per
distinct text, so records share date and field-set objects. Every other
line is decoded in full. The first aggregation over a log builds its
MeasurementStore in one pass over the records, and each COUNT filter set
is matched once against each distinct set of event fields. After that a
COUNT binding for any period or density sub-period costs two bisects,
O(log n) in the log's distinct dates, and a DIRECT binding costs time
proportional to the base's entries inside the period. Period bounds and
density windows come from the periods module's per-key cache.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from operator import itemgetter

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


@dataclass(frozen=True, slots=True)
class DirectEntry:
    """One reported value for a DIRECT base measurement."""

    timestamp: dt.date
    base: str
    value: float
    line: int  # 1-based line in the log; later lines win LATEST ties


@dataclass(frozen=True, slots=True)
class RawEvent:
    """One raw log event, counted by COUNT bases via field filters."""

    timestamp: dt.date
    fields: tuple[tuple[str, str], ...]
    line: int


MeasurementRecord = DirectEntry | RawEvent


@dataclass(frozen=True)
class MeasurementLog:
    """Accepted records in ingest order (file order, then line), and diagnostics.

    `store` indexes the records by date on first use and lives as long as
    the log does.
    """

    records: tuple[MeasurementRecord, ...]
    diagnostics: tuple[Diagnostic, ...]

    @cached_property
    def store(self) -> MeasurementStore:
        return MeasurementStore(self.records)


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


def _field_set(fields: object) -> tuple[tuple[str, str], ...] | None:
    """The sorted items of a JSON object mapping strings to strings, else None."""
    if not isinstance(fields, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in fields.items()
    ):
        return None
    return tuple(sorted(fields.items()))


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


# One decoder for every line: json.loads builds a new one per call whenever
# it is given a hook such as parse_constant.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


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


def _decode_line(line: str, filename: str, line_no: int, model: Model) -> MeasurementRecord | Diagnostic:
    """One stripped, non-blank log line decoded in full: its record or its I-diagnostic."""
    try:
        obj = _decode(line)
    except ValueError as exc:
        return _bad_line(filename, line_no, f"malformed log line: {exc}")
    if not isinstance(obj, dict):
        return _bad_line(filename, line_no, "malformed log line: not a JSON object")

    try:
        timestamp = _parse_timestamp(obj.get("timestamp"))
    except ValueError as exc:
        return _bad_line(filename, line_no, f"invalid date: {exc}", code="I003")

    has_base = "base" in obj
    if has_base == ("fields" in obj):
        return _bad_line(filename, line_no, "malformed log line: need exactly one of 'base' or 'fields'")

    if not has_base:
        fields = _field_set(obj["fields"])
        if fields is None:
            return _bad_line(filename, line_no, "malformed log line: 'fields' must map strings to strings")
        return RawEvent(timestamp, fields, line_no)

    base_id = obj["base"]
    if not isinstance(base_id, str):
        return _bad_line(filename, line_no, "malformed log line: 'base' must be a string")
    number = _finite_number(obj.get("value"))
    if number is None:
        return _bad_line(filename, line_no, "malformed log line: 'value' must be a finite number")
    base_def = model.bases.get(base_id)
    if base_def is None:
        return _bad_line(filename, line_no, f"unknown base measurement {base_id!r}", code="I002")
    if base_def.mode is not SourceMode.DIRECT:
        return _bad_line(
            filename,
            line_no,
            f"base measurement {base_id!r} is not DIRECT mode and cannot take reported values",
            code="I002",
        )
    return DirectEntry(timestamp, base_id, number, line_no)


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


def _decoded_field_set(text: str) -> tuple[tuple[str, str], ...] | None:
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


def ingest_lines(lines: list[str], filename: str, model: Model) -> MeasurementLog:
    """Records and I-diagnostics of one log's lines.

    A line in one of the two shapes json.dumps writes takes the fast path:
    one regex match, a date parsed once per distinct date string, and a
    `fields` object decoded once per distinct text. Every other line, and
    a fast-path line that fails a check, is decoded in full by
    `_decode_line`, which gives each bad line its diagnostic.
    """
    records: list[MeasurementRecord] = []
    diags: list[Diagnostic] = []
    dates = cache(_date_or_none)
    field_sets = cache(_decoded_field_set)
    direct_bases = {base_id for base_id, base in model.bases.items() if base.mode is SourceMode.DIRECT}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        shape = _SHAPES.fullmatch(stripped)
        if shape is not None and (timestamp := dates(shape[1])) is not None:
            _, base_id, number, fraction, fields_text = shape.groups()
            if fields_text is not None:
                fields = field_sets(fields_text)
                if fields is not None:
                    records.append(RawEvent(timestamp, fields, line_no))
                    continue
            elif base_id in direct_bases:
                value = _json_number(number, fraction)
                if value is not None:
                    records.append(DirectEntry(timestamp, base_id, value, line_no))
                    continue
        record = _decode_line(stripped, filename, line_no, model)
        if isinstance(record, Diagnostic):
            diags.append(record)
        else:
            records.append(record)
    return MeasurementLog(tuple(records), tuple(sorted(diags, key=sort_key)))


def ingest(path: str, model: Model) -> MeasurementLog:
    """Ingest one UTF-8 log file; raises OSError or UnicodeDecodeError when unreadable.

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
    lines = text.removesuffix("\n").split("\n") if text else []
    return ingest_lines(lines, path, model)


def ingest_many(paths: list[str], model: Model) -> MeasurementLog:
    records: list[MeasurementRecord] = []
    diags: list[Diagnostic] = []
    for path in paths:
        log = ingest(path, model)
        records.extend(log.records)
        diags.extend(log.diagnostics)
    return MeasurementLog(tuple(records), tuple(sorted(diags, key=sort_key)))


# -- aggregation --------------------------------------------------------------


class MeasurementStore:
    """Date-indexed view of one log's records, answering date-range queries.

    Built in one pass: DIRECT entries grouped by base and sorted by (date,
    line, later ingest first), raw events tallied by (date, fields). The
    first query for a COUNT filter set matches each distinct field set
    against it once and keeps the hits as sorted dates plus prefix sums.
    Every query is then two bisects over one base's dates.
    """

    def __init__(self, records: tuple[MeasurementRecord, ...]) -> None:
        by_base: dict[str, list[tuple[dt.date, int, int, float]]] = {}
        for seq, record in enumerate(records):
            if isinstance(record, DirectEntry):
                entry = (record.timestamp, record.line, -seq, record.value)
                by_base.setdefault(record.base, []).append(entry)
        self._events = Counter(
            (record.timestamp, record.fields) for record in records if isinstance(record, RawEvent)
        )
        self._direct: dict[str, tuple[list[dt.date], list[tuple[dt.date, int, int, float]]]] = {}
        for base_id, entries in by_base.items():
            entries.sort()
            self._direct[base_id] = ([entry[0] for entry in entries], entries)
        self._counts: dict[tuple[tuple[str, str], ...], tuple[list[dt.date], list[int]]] = {}

    def count(self, filters: tuple[tuple[str, str], ...], first: dt.date, last: dt.date) -> int:
        """Raw events dated first..last whose fields match every filter."""
        index = self._counts.get(filters)
        if index is None:
            matches: dict[tuple[tuple[str, str], ...], bool] = {}
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
    first, last = periods.start_date(period), periods.end_date(period)
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


@dataclass(frozen=True)
class EvaluationResult:
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
    granularity, period = periods.parse_period_key(period)
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


@dataclass(frozen=True)
class ActionDirective:
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


class UnresolvedTarget(Exception):
    pass


def _owner_stakeholders(model: Model, ref: str) -> tuple[str, ...]:
    if ref in model.objectives:
        return model.objectives[ref].viewpoint
    if ref in model.goals:
        return model.goals[ref].viewpoint
    if ref in model.metrics:
        return model.metrics[ref].stakeholders
    raise UnresolvedTarget(f"owner_of({ref}) does not name an objective, goal or metric")


def route_actions(result: EvaluationResult, model: Model) -> list[ActionDirective]:
    """Expand the matched band's actions into concrete directives.

    Requires a classified result. Output is ordered LOG < NOTIFY < ESCALATE,
    stable within a kind (band declaration order).
    """
    if result.band is None:
        raise ValueError(f"result for {result.metric_id!r} has no classification to route")
    band = result.band
    affected = ", ".join(result.affected_objectives) or "none"
    message = (
        f"metric {result.metric_id} period {result.period}: value {result.value} "
        f"in band '{band.label}'; affected objectives: {affected}"
    )
    directives: list[ActionDirective] = []
    for action in band.actions:
        if action.target.is_owner:
            stakeholders = _owner_stakeholders(model, action.target.ref)
        else:
            if action.target.ref not in model.stakeholders:
                raise UnresolvedTarget(f"action target {action.target.ref!r} is not a stakeholder")
            stakeholders = (action.target.ref,)
        directives.append(
            ActionDirective(
                kind=action.kind,
                stakeholders=stakeholders,
                metric_id=result.metric_id,
                period=result.period,
                band_label=band.label,
                message=message,
            )
        )
    directives.sort(key=lambda d: d.kind.urgency)  # stable: declaration order within kind
    return directives


def route_result(result: EvaluationResult, model: Model) -> list[ActionDirective]:
    """Route a result whether it classified or failed.

    A failed evaluation is itself a finding: it goes to the metric's own
    stakeholders at NOTIFY level.
    """
    if result.band is not None:
        return route_actions(result, model)
    metric = model.metrics.get(result.metric_id)
    stakeholders = metric.stakeholders if metric else ()
    detail = result.failure or "no classification"
    have = ", ".join(name for name, _ in result.bindings) or "none"
    return [
        ActionDirective(
            kind=ActionKind.NOTIFY,
            stakeholders=stakeholders,
            metric_id=result.metric_id,
            period=result.period,
            band_label=None,
            message=(
                f"metric {result.metric_id} period {result.period} could not be "
                f"evaluated: {detail} (bindings present: {have})"
            ),
        )
    ]

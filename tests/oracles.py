"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (plain datetime
arithmetic, exhaustive sweeps, fresh BFS over edges rebuilt from node fields,
a character-at-a-time tokenizer, an ingest that decodes every log line in
full) so a bug in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import calendar
import datetime as dt
import json
import math
import re
from collections import defaultdict
from itertools import accumulate

from symbiosis_kit.diagnostics import Diagnostic, Severity, SourceSpan, sort_key
from symbiosis_kit.lexer import Token, TokenKind, parse_number
from symbiosis_kit.model import Aggregation, BaseMeasurementDef, Granularity, MetricDef, Model, SourceMode
from symbiosis_kit.pipeline import DirectEntry, MeasurementLog, MeasurementRecord, RawEvent

# -- band coverage sweep --------------------------------------------------------
# Works in integer micro-units (1 unit == 1e-6 of the metric's value scale) so
# every sweep point is examined exactly, with no float round-off.


def sweep_band_defects(
    bands_u: list[tuple[int, int, bool, bool]],
    domain_lo_u: int,
    domain_hi_u: int,
) -> tuple[bool, bool]:
    """(has uncovered point, has doubly covered point) over a closed domain.

    `bands_u` holds (lo, hi, lo_closed, hi_closed) in micro-units. Coverage is
    counted at every single micro-unit point of the domain; the difference
    array plus prefix sum is just a fast way of writing that exhaustive sweep.
    """
    n = domain_hi_u - domain_lo_u
    diff = [0] * (n + 2)
    for lo, hi, lo_closed, hi_closed in bands_u:
        start = max(lo if lo_closed else lo + 1, domain_lo_u)
        end = min(hi if hi_closed else hi - 1, domain_hi_u)
        if start > end:
            continue
        diff[start - domain_lo_u] += 1
        diff[end - domain_lo_u + 1] -= 1
    coverage = list(accumulate(diff[: n + 1]))
    return any(c == 0 for c in coverage), any(c > 1 for c in coverage)


# -- period bounds and counting -------------------------------------------------


def period_bounds(key: str) -> tuple[dt.date, dt.date]:
    """First and last day of a period key, from plain calendar arithmetic."""
    if key.count("-") == 2:
        day = dt.date.fromisoformat(key)
        return day, day
    if "-W" in key:
        year, week = key.split("-W")
        first = dt.date.fromisocalendar(int(year), int(week), 1)
        return first, first + dt.timedelta(days=6)
    if "-Q" in key:
        year, quarter = key.split("-Q")
        month = (int(quarter) - 1) * 3 + 1
        last_month = month + 2
        last_day = calendar.monthrange(int(year), last_month)[1]
        return dt.date(int(year), month, 1), dt.date(int(year), last_month, last_day)
    if "-" in key:
        year, month = key.split("-")
        last_day = calendar.monthrange(int(year), int(month))[1]
        return dt.date(int(year), int(month), 1), dt.date(int(year), int(month), last_day)
    year_n = int(key)
    return dt.date(year_n, 1, 1), dt.date(year_n, 12, 31)


def brute_force_count(
    records: tuple[MeasurementRecord, ...],
    filters: tuple[tuple[str, str], ...],
    period_key: str,
) -> float:
    """Re-count raw events one by one against filters and period bounds."""
    lo, hi = period_bounds(period_key)
    count = 0
    for record in records:
        if not isinstance(record, RawEvent):
            continue
        if not (lo <= record.timestamp <= hi):
            continue
        field_map = dict(record.fields)
        if all(field_map.get(name) == value for name, value in filters):
            count += 1
    return float(count)


# -- aggregation by rescanning ---------------------------------------------------
# The record scan the package used before it indexed logs by date: each
# (base, period) and each density sub-period walks every record again.


def _scan_base(
    base: BaseMeasurementDef,
    records: tuple[MeasurementRecord, ...],
    lo: dt.date,
    hi: dt.date,
) -> float | None:
    """One base over the days lo..hi; None when a DIRECT base has no data."""
    if base.mode is SourceMode.COUNT:
        count = 0
        for record in records:
            if isinstance(record, RawEvent) and lo <= record.timestamp <= hi:
                field_map = dict(record.fields)
                if all(field_map.get(name) == value for name, value in base.filters):
                    count += 1
        return float(count)
    entries = [
        record
        for record in records
        if isinstance(record, DirectEntry) and record.base == base.id and lo <= record.timestamp <= hi
    ]
    if not entries:
        return None
    if base.aggregation is Aggregation.SUM:
        return float(sum(entry.value for entry in entries))
    return max(entries, key=lambda e: (e.timestamp, e.line)).value


def scan_aggregate(
    records: tuple[MeasurementRecord, ...],
    metric: MetricDef,
    period_key: str,
    model: Model,
) -> dict[str, float]:
    """Bindings of the metric's bases over one period, by rescanning records."""
    lo, hi = period_bounds(period_key)
    bindings = {}
    for base_id in metric.uses:
        value = _scan_base(model.bases[base_id], records, lo, hi)
        if value is not None:
            bindings[base_id] = value
    return bindings


def _key_of(day: dt.date, granularity: Granularity) -> str:
    if granularity is Granularity.DAILY:
        return day.isoformat()
    if granularity is Granularity.WEEKLY:
        year, week, _ = day.isocalendar()
        return f"{year:04d}-W{week:02d}"
    if granularity is Granularity.MONTHLY:
        return f"{day.year:04d}-{day.month:02d}"
    if granularity is Granularity.QUARTERLY:
        return f"{day.year:04d}-Q{(day.month + 2) // 3}"
    return f"{day.year:04d}"


def scan_density_warnings(
    records: tuple[MeasurementRecord, ...],
    metric: MetricDef,
    period_key: str,
    model: Model,
) -> tuple[str, ...]:
    """Collection sub-periods with no data on their days inside the period.

    Sub-periods are found by walking every day of the period; a straddling
    one (an ISO week across a month end) is judged on its inside days only.
    """
    if metric.schedule is None:
        return ()
    lo, hi = period_bounds(period_key)
    days: dict[str, list[dt.date]] = {}
    day = lo
    while day <= hi:
        days.setdefault(_key_of(day, metric.schedule.collection), []).append(day)
        day += dt.timedelta(days=1)
    if len(days) == 1:
        return ()
    warnings = []
    for subkey, inside in days.items():
        values = [
            (base, _scan_base(base, records, inside[0], inside[-1]))
            for base in (model.bases[b] for b in metric.uses)
        ]
        if not any(
            value is not None and not (base.mode is SourceMode.COUNT and value == 0.0)
            for base, value in values
        ):
            warnings.append(
                f"collection period {subkey} inside {period_key} has no records for metric {metric.id}"
            )
    return tuple(warnings)


# -- orphans after node removal --------------------------------------------------


def orphans_after_removal(model: Model, removed: str) -> set[str]:
    """Recompute downstream orphans from scratch.

    Builds its own ancestor edges straight from node fields (refines, measures,
    question goal, metric answers), finds the removed node's descendants, and
    keeps those that cannot reach any surviving top-level objective once the
    removed node is gone.
    """
    up: dict[str, set[str]] = defaultdict(set)
    down: dict[str, set[str]] = defaultdict(set)

    def link(child: str, parent: str) -> None:
        up[child].add(parent)
        down[parent].add(child)

    for bo in model.objectives.values():
        if bo.refines:
            link(bo.id, bo.refines)
    for goal in model.goals.values():
        for target in goal.measures:
            link(goal.id, target)
    for question in model.questions.values():
        if question.goal:
            link(question.id, question.goal)
    for metric in model.metrics.values():
        for q_id in metric.answers:
            link(metric.id, q_id)

    descendants: set[str] = set()
    stack = [removed]
    while stack:
        for child in down[stack.pop()]:
            if child != removed and child not in descendants:
                descendants.add(child)
                stack.append(child)

    roots = {i for i, bo in model.objectives.items() if bo.refines is None} - {removed}

    orphans: set[str] = set()
    for node in descendants:
        if node in roots:
            continue
        seen = {node, removed}
        stack = [node]
        reached = False
        while stack and not reached:
            for parent in up[stack.pop()]:
                if parent in seen:
                    continue
                if parent in roots:
                    reached = True
                    break
                seen.add(parent)
                stack.append(parent)
        if not reached:
            orphans.add(node)
    return orphans


# -- tokenizing one character at a time --------------------------------------------
# The tokenizer the package had before it lexed with one compiled pattern, kept
# as written, except that it reads only ASCII digits and builds each token
# through `_token`. It differs on purpose in one case only: a backslash
# directly before a newline inside a string escapes the newline here (and
# loses count of the line), while the package ends the string at the newline.

# Dots inside identifiers must be followed by an alphanumeric, so that
# "org.*" lexes as IDENT(org) DOT STAR while "BO1.1" stays one identifier.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?![0-9])")
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACK,
    "]": TokenKind.RBRACK,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "=": TokenKind.EQUALS,
}

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


def _token(kind: TokenKind, text: str, span: SourceSpan, value: float | None = None) -> Token:
    """A Token at a span: the lexer keeps locations as fields, not span objects."""
    return Token(kind, text, span.file, span.line, span.col, span.length, value)


def tokenize_by_characters(text: str, filename: str = "<string>") -> tuple[list[Token], list[Diagnostic]]:
    """Total: any input yields a token list (ending in EOF) plus diagnostics."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)

    def span(start: int, length: int) -> SourceSpan:
        return SourceSpan(filename, line, start - line_start + 1, max(length, 1))

    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        if ch == '"':
            start = pos
            pos += 1
            out: list[str] = []
            closed = False
            while pos < n:
                c = text[pos]
                if c == '"':
                    pos += 1
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\":
                    if pos + 1 < n and text[pos + 1] in _ESCAPES:
                        out.append(_ESCAPES[text[pos + 1]])
                        pos += 2
                        continue
                    # Unknown escape: keep the next character literally.
                    if pos + 1 < n:
                        out.append(text[pos + 1])
                        pos += 2
                        continue
                    pos += 1
                    continue
                out.append(c)
                pos += 1
            if not closed:
                diags.append(
                    Diagnostic(
                        "P002",
                        Severity.ERROR,
                        "unterminated string literal",
                        span(start, pos - start),
                    )
                )
            tokens.append(_token(TokenKind.STRING, "".join(out), span(start, pos - start)))
            continue
        m = _DATE_RE.match(text, pos)
        if m:
            tokens.append(_token(TokenKind.DATE, m.group(), span(pos, len(m.group()))))
            pos = m.end()
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(
                _token(
                    TokenKind.NUMBER,
                    m.group(),
                    span(pos, len(m.group())),
                    value=parse_number(m.group()),
                )
            )
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(_token(TokenKind.IDENT, m.group(), span(pos, len(m.group()))))
            pos = m.end()
            continue
        if text.startswith("->", pos):
            tokens.append(_token(TokenKind.ARROW, "->", span(pos, 2)))
            pos += 2
            continue
        if ch in _PUNCT:
            tokens.append(_token(_PUNCT[ch], ch, span(pos, 1)))
            pos += 1
            continue
        diags.append(
            Diagnostic(
                "P001",
                Severity.ERROR,
                f"unexpected character {ch!r}",
                span(pos, 1),
            )
        )
        pos += 1

    tokens.append(_token(TokenKind.EOF, "", SourceSpan(filename, line, n - line_start + 1, 1)))
    return tokens, diags


# -- ingest by decoding every line ----------------------------------------------
# The ingest the package had before it matched the usual line shapes with one
# pattern: every line is decoded in full by json's decoder. Kept as written,
# except that a timestamp must be exactly YYYY-MM-DD in ASCII digits.

_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _bad_line(filename: str, line_no: int, message: str, code: str = "I001") -> Diagnostic:
    span = SourceSpan(filename, line_no, 1)
    return Diagnostic(code, Severity.ERROR, message, span, None)


def _parse_timestamp(text: object) -> dt.date:
    if not isinstance(text, str):
        raise ValueError(f"timestamp must be a string, got {type(text).__name__}")
    if not _TIMESTAMP_RE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def _finite_number(value: object) -> float | None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode(line: str) -> object:
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        return _DECODER.decode(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def ingest_lines_by_decoding(lines: list[str], filename: str, model: Model) -> MeasurementLog:
    records: list[MeasurementRecord] = []
    diags: list[Diagnostic] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = _decode(stripped)
        except ValueError as exc:
            diags.append(_bad_line(filename, line_no, f"malformed log line: {exc}"))
            continue
        if not isinstance(obj, dict):
            diags.append(_bad_line(filename, line_no, "malformed log line: not a JSON object"))
            continue

        try:
            timestamp = _parse_timestamp(obj.get("timestamp"))
        except ValueError as exc:
            diags.append(_bad_line(filename, line_no, f"invalid date: {exc}", code="I003"))
            continue

        has_base = "base" in obj
        has_fields = "fields" in obj
        if has_base == has_fields:
            diags.append(
                _bad_line(
                    filename,
                    line_no,
                    "malformed log line: need exactly one of 'base' or 'fields'",
                )
            )
            continue

        if has_base:
            base_id = obj["base"]
            value = obj.get("value")
            if not isinstance(base_id, str):
                diags.append(_bad_line(filename, line_no, "malformed log line: 'base' must be a string"))
                continue
            number = _finite_number(value)
            if number is None:
                diags.append(
                    _bad_line(filename, line_no, "malformed log line: 'value' must be a finite number")
                )
                continue
            base_def = model.bases.get(base_id)
            if base_def is None:
                diags.append(
                    _bad_line(filename, line_no, f"unknown base measurement {base_id!r}", code="I002")
                )
                continue
            if base_def.mode is not SourceMode.DIRECT:
                diags.append(
                    _bad_line(
                        filename,
                        line_no,
                        f"base measurement {base_id!r} is not DIRECT mode and cannot take reported values",
                        code="I002",
                    )
                )
                continue
            records.append(DirectEntry(timestamp, base_id, number, line_no))
        else:
            fields = obj["fields"]
            if not isinstance(fields, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in fields.items()
            ):
                diags.append(
                    _bad_line(
                        filename,
                        line_no,
                        "malformed log line: 'fields' must map strings to strings",
                    )
                )
                continue
            records.append(RawEvent(timestamp, tuple(sorted(fields.items())), line_no))
    return MeasurementLog(tuple(records), tuple(sorted(diags, key=sort_key)))

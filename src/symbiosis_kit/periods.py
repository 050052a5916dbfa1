"""Calendar periods used by measurement schedules.

A period key is a string naming one concrete reporting window:

    daily      2014-09-03
    weekly     2014-W36          (ISO week)
    monthly    2014-09
    quarterly  2014-Q3
    yearly     2014

Every date belongs to exactly one period per granularity, so membership is
just ``period_of(date, granularity) == key``.
"""

from __future__ import annotations

import calendar
import datetime as dt
import re

from .model import Granularity

_DAILY_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_WEEKLY_RE = re.compile(r"^(\d{4})-W(\d{2})$")
_MONTHLY_RE = re.compile(r"^(\d{4})-(\d{2})$")
_QUARTERLY_RE = re.compile(r"^(\d{4})-Q([1-4])$")
_YEARLY_RE = re.compile(r"^(\d{4})$")


class PeriodError(ValueError):
    pass


def period_of(date: dt.date, granularity: Granularity) -> str:
    """The period key that contains `date` at the given granularity."""
    if granularity is Granularity.DAILY:
        return date.isoformat()
    if granularity is Granularity.WEEKLY:
        iso = date.isocalendar()
        return f"{iso.year:04d}-W{iso.week:02d}"
    if granularity is Granularity.MONTHLY:
        return f"{date.year:04d}-{date.month:02d}"
    if granularity is Granularity.QUARTERLY:
        return f"{date.year:04d}-Q{(date.month - 1) // 3 + 1}"
    if granularity is Granularity.YEARLY:
        return f"{date.year:04d}"
    raise PeriodError(f"unknown granularity {granularity!r}")


def granularity_of(key: str) -> Granularity:
    """Infer the granularity from the shape of a period key."""
    if _DAILY_RE.match(key):
        return Granularity.DAILY
    if _WEEKLY_RE.match(key):
        return Granularity.WEEKLY
    if _MONTHLY_RE.match(key):
        return Granularity.MONTHLY
    if _QUARTERLY_RE.match(key):
        return Granularity.QUARTERLY
    if _YEARLY_RE.match(key):
        return Granularity.YEARLY
    raise PeriodError(f"malformed period key {key!r}")


def parse_period_key(key: str) -> tuple[Granularity, str]:
    """Validate a key and return (granularity, canonical key).

    Raises PeriodError when the key is malformed or names an impossible
    period (month 13, ISO week 54, Feb 30).
    """
    granularity = granularity_of(key)
    start = start_date(key)  # validates ranges
    return granularity, period_of(start, granularity)


def start_date(key: str) -> dt.date:
    """First calendar day of the period."""
    m = _DAILY_RE.match(key)
    if m:
        try:
            return dt.date(int(m[1]), int(m[2]), int(m[3]))
        except ValueError as exc:
            raise PeriodError(f"invalid date {key!r}: {exc}") from None
    m = _WEEKLY_RE.match(key)
    if m:
        try:
            return dt.date.fromisocalendar(int(m[1]), int(m[2]), 1)
        except ValueError as exc:
            raise PeriodError(f"invalid ISO week {key!r}: {exc}") from None
    m = _MONTHLY_RE.match(key)
    if m:
        try:
            return dt.date(int(m[1]), int(m[2]), 1)
        except ValueError as exc:
            raise PeriodError(f"invalid month {key!r}: {exc}") from None
    m = _QUARTERLY_RE.match(key)
    if m:
        return dt.date(int(m[1]), (int(m[2]) - 1) * 3 + 1, 1)
    m = _YEARLY_RE.match(key)
    if m:
        return dt.date(int(m[1]), 1, 1)
    raise PeriodError(f"malformed period key {key!r}")


def end_date(key: str) -> dt.date:
    """Last calendar day of the period (at most date.max)."""
    granularity = granularity_of(key)
    start = start_date(key)
    if granularity is Granularity.DAILY:
        return start
    if granularity is Granularity.WEEKLY:
        return min(start, dt.date.max - dt.timedelta(days=6)) + dt.timedelta(days=6)
    if granularity is Granularity.YEARLY:
        return dt.date(start.year, 12, 31)
    month = start.month + (2 if granularity is Granularity.QUARTERLY else 0)
    return dt.date(start.year, month, calendar.monthrange(start.year, month)[1])


def next_period(key: str) -> str:
    """The period of the same granularity that starts the day after `key` ends."""
    return period_of(end_date(key) + dt.timedelta(days=1), granularity_of(key))


def period_contains(key: str, date: dt.date) -> bool:
    return period_of(date, granularity_of(key)) == key


def period_range(first: str, last: str) -> list[str]:
    """All periods from `first` through `last`, inclusive. Same granularity only."""
    g_first = granularity_of(first)
    g_last = granularity_of(last)
    if g_first is not g_last:
        raise PeriodError(
            f"period range endpoints differ in granularity: {first!r} is "
            f"{g_first.value}, {last!r} is {g_last.value}"
        )
    _, first = parse_period_key(first)
    _, last = parse_period_key(last)
    if start_date(first) > start_date(last):
        raise PeriodError(f"period range start {first!r} is after end {last!r}")
    keys = [first]
    while keys[-1] != last:
        keys.append(next_period(keys[-1]))
        if len(keys) > 20000:  # poor man's infinite-loop guard
            raise PeriodError(f"period range {first!r}..{last!r} is too large")
    return keys


def subperiods(key: str, granularity: Granularity) -> list[str]:
    """Periods of a finer granularity that overlap `key`, in order.

    A finer period that straddles the boundary (ISO weeks do this) is
    included when any of its days fall inside `key`.
    """
    own = granularity_of(key)
    if granularity.ordinal > own.ordinal:
        raise PeriodError(
            f"{granularity.value} is coarser than the period {key!r} itself"
        )
    if granularity is own:
        return [key]
    first = period_of(start_date(key), granularity)
    last = period_of(end_date(key), granularity)
    return period_range(first, last)

"""Calendar periods used by measurement schedules.

A period key is a string naming one concrete reporting window:

    daily      2014-09-03
    weekly     2014-W36          (ISO week)
    monthly    2014-09
    quarterly  2014-Q3
    yearly     2014

A key is written in ASCII digits, is matched whole, and names a year from
0001 to 9999. Every date belongs to exactly one period per granularity, so
membership is just ``period_of(date, granularity) == key``. A key that is
accepted is already canonical: it is the ``period_of`` of its first day.

Each key is parsed once per process: `period(key)` is that one parse, a
cached `Period` record keyed by the key string alone, and every caller
reads the record. A rejected key is never cached; it raises the same
PeriodError every time.
"""

from __future__ import annotations

import calendar
import datetime as dt
import functools
import re
from typing import Callable, NamedTuple

from .model import Granularity

# Each key shape: its granularity, its pattern, what an impossible key of the
# shape is called, and the first day of the period its numbers name.
_SHAPES = (
    (Granularity.DAILY, re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})"), "date", dt.date),
    (Granularity.WEEKLY, re.compile(r"([0-9]{4})-W([0-9]{2})"), "ISO week",
     lambda year, week: dt.date.fromisocalendar(year, week, 1)),
    (Granularity.MONTHLY, re.compile(r"([0-9]{4})-([0-9]{2})"), "month",
     lambda year, month: dt.date(year, month, 1)),
    (Granularity.QUARTERLY, re.compile(r"([0-9]{4})-Q([1-4])"), "quarter",
     lambda year, quarter: dt.date(year, 3 * quarter - 2, 1)),
    (Granularity.YEARLY, re.compile(r"([0-9]{4})"), "year", lambda year: dt.date(year, 1, 1)),
)


class PeriodError(ValueError):
    pass


class Period(NamedTuple):
    granularity: Granularity
    first: dt.date
    last: dt.date  # at most date.max


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


def _shape(key: str) -> tuple[Granularity, str, Callable[..., dt.date], re.Match[str]]:
    """The row of `_SHAPES` whose pattern `key` matches, with the match."""
    for granularity, pattern, what, first_day in _SHAPES:
        match = pattern.fullmatch(key)
        if match:
            return granularity, what, first_day, match
    raise PeriodError(f"malformed period key {key!r}")


@functools.lru_cache(maxsize=4096)
def period(key: str) -> Period:
    """The one parse of `key`; PeriodError for a period that does not exist."""
    granularity, what, first_day, match = _shape(key)
    try:
        first = first_day(*map(int, match.groups()))
    except ValueError as exc:
        raise PeriodError(f"invalid {what} {key!r}: {exc}") from None
    if granularity is Granularity.DAILY:
        last = first
    elif granularity is Granularity.WEEKLY:
        last = min(first, dt.date.max - dt.timedelta(days=6)) + dt.timedelta(days=6)
    elif granularity is Granularity.YEARLY:
        last = dt.date(first.year, 12, 31)
    else:
        month = first.month + (2 if granularity is Granularity.QUARTERLY else 0)
        last = dt.date(first.year, month, calendar.monthrange(first.year, month)[1])
    return Period(granularity, first, last)


def granularity_of(key: str) -> Granularity:
    """Infer the granularity from the shape of a period key."""
    return _shape(key)[0]


def next_period(key: str) -> str:
    """The period of the same granularity that starts the day after `key` ends.

    Raises PeriodError for a period that ends on date.max (9999-12-31).
    """
    granularity, _, last = period(key)
    if last == dt.date.max:
        raise PeriodError(f"no period follows {key!r}: it ends on the last representable day")
    return period_of(last + dt.timedelta(days=1), granularity)


def period_contains(key: str, date: dt.date) -> bool:
    return period_of(date, granularity_of(key)) == key


def period_range(first: str, last: str) -> list[str]:
    """All periods from `first` through `last`, inclusive. Same granularity only."""
    start, end = period(first), period(last)
    if start.granularity is not end.granularity:
        raise PeriodError(
            f"period range endpoints differ in granularity: {first!r} is "
            f"{start.granularity.value}, {last!r} is {end.granularity.value}"
        )
    if start.first > end.first:
        raise PeriodError(f"period range start {first!r} is after end {last!r}")
    keys = [first]
    while keys[-1] != last:
        keys.append(next_period(keys[-1]))
        if len(keys) > 20000:  # keys strictly increase, so this only limits the range a user asks for
            raise PeriodError(f"period range {first!r}..{last!r} is too large")
    return keys


@functools.lru_cache(maxsize=1024)
def subperiod_windows(key: str, granularity: Granularity) -> tuple[tuple[str, dt.date, dt.date], ...]:
    """(subkey, first, last) for each period of the finer `granularity` that
    overlaps `key`, in order, its days clipped to those of `key`. A period
    that straddles the boundary (ISO weeks do this) is included when any of
    its days fall inside `key`. Cached and shared, so immutable."""
    own, first, last = period(key)
    if granularity.ordinal > own.ordinal:
        raise PeriodError(f"{granularity.value} is coarser than the period {key!r} itself")
    if granularity is own:
        return ((key, first, last),)
    subkeys = period_range(period_of(first, granularity), period_of(last, granularity))
    return tuple(
        (subkey, max(sub_first, first), min(sub_last, last))
        for subkey, (_, sub_first, sub_last) in zip(subkeys, map(period, subkeys))
    )

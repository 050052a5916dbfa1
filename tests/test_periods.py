"""Calendar period keys: formatting, parsing, iteration, containment."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbiosis_kit import periods
from symbiosis_kit.model import Granularity
from symbiosis_kit.periods import (
    PeriodError,
    granularity_of,
    next_period,
    period,
    period_contains,
    period_of,
    period_range,
    subperiod_windows,
)

from oracles import period_bounds

D = dt.date
G = Granularity


def subperiods(key: str, granularity: Granularity) -> list[str]:
    """Periods of a finer granularity that overlap `key`, in order."""
    return [subkey for subkey, _, _ in subperiod_windows(key, granularity)]


def test_period_of_every_granularity():
    day = D(2014, 9, 3)
    assert period_of(day, G.DAILY) == "2014-09-03"
    assert period_of(day, G.WEEKLY) == "2014-W36"
    assert period_of(day, G.MONTHLY) == "2014-09"
    assert period_of(day, G.QUARTERLY) == "2014-Q3"
    assert period_of(day, G.YEARLY) == "2014"


def test_iso_week_year_boundary():
    # 2014-12-29 is a Monday belonging to ISO week 2015-W01.
    assert period_of(D(2014, 12, 29), G.WEEKLY) == "2015-W01"
    assert period("2015-W01")[1:] == (D(2014, 12, 29), D(2015, 1, 4))


def test_granularity_of():
    assert granularity_of("2014-09-03") is G.DAILY
    assert granularity_of("2014-W36") is G.WEEKLY
    assert granularity_of("2014-09") is G.MONTHLY
    assert granularity_of("2014-Q3") is G.QUARTERLY
    assert granularity_of("2014") is G.YEARLY


@pytest.mark.parametrize(
    "bad",
    ["2014-13", "2014-00", "2014-W54", "2014-W00", "2014-Q5", "2014-02-30", "20x4", "garbage", ""],
)
def test_parse_period_key_rejects_malformed(bad):
    with pytest.raises(PeriodError):
        period(bad)


@pytest.mark.parametrize(
    "bad",
    # full-width and Arabic-Indic digits, and a key with something after it
    ["\uff12\uff10\uff11\uff14-09", "\u0662\u0660\u0661\u0664-Q3", "2014-0\u0669",
     "2014-09\n", "2014\n", "2014-Q3\n", "2014-09-03\n", "2014-W36\n", "2014-09 "],
)
def test_period_keys_are_ascii_digits_matched_whole(bad):
    with pytest.raises(PeriodError, match="malformed period key"):
        period(bad)
    with pytest.raises(PeriodError, match="malformed period key"):
        granularity_of(bad)


@pytest.mark.parametrize(
    "key, message",
    [
        ("0000", "invalid year '0000': year 0 is out of range"),
        ("0000-Q1", "invalid quarter '0000-Q1': year 0 is out of range"),
        ("0000-01", "invalid month '0000-01': year 0 is out of range"),
        ("0000-01-01", "invalid date '0000-01-01': year 0 is out of range"),
        ("0000-W01", "invalid ISO week '0000-W01': Year is out of range: 0"),
    ],
)
def test_year_zero_is_a_period_error_at_every_granularity(key, message):
    for call in (period, next_period):
        with pytest.raises(PeriodError) as exc:
            call(key)
        assert str(exc.value) == message
    assert granularity_of(key) is granularity_of(key.replace("0000", "2014"))


def test_parse_period_key_returns_granularity_and_canonical_key():
    assert period("2014-Q3") == (G.QUARTERLY, D(2014, 7, 1), D(2014, 9, 30))


_KEY_SHAPES = (
    lambda year, a, b: f"{year:04d}-{a:02d}-{b:02d}",
    lambda year, a, b: f"{year:04d}-W{a:02d}",
    lambda year, a, b: f"{year:04d}-{a:02d}",
    lambda year, a, b: f"{year:04d}-Q{a % 6}",
    lambda year, a, b: f"{year:04d}",
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_KEY_SHAPES), st.integers(0, 9999), st.integers(0, 55), st.integers(0, 32))
def test_every_accepted_key_is_its_own_canonical_form(shape, year, a, b):
    key = shape(year, a, b)
    try:
        granularity, first, _ = period(key)
    except PeriodError:
        return
    assert key == period_of(first, granularity)


def test_month_bounds_handle_leap_february():
    assert period("2016-02")[1:] == (D(2016, 2, 1), D(2016, 2, 29))
    assert period("2015-02").last == D(2015, 2, 28)


def test_end_date_at_the_end_of_the_calendar():
    assert period("9999").last == D(9999, 12, 31)
    assert period("9999-Q4").last == D(9999, 12, 31)
    assert period("9999-12").last == D(9999, 12, 31)
    assert period("9999-W52").last == dt.date.max  # the week runs past the last representable day


def test_next_period_rollovers():
    assert next_period("2014-12") == "2015-01"
    assert next_period("2014-Q4") == "2015-Q1"
    assert next_period("2014-12-31") == "2015-01-01"
    assert next_period("2014") == "2015"
    # 2015 has 53 ISO weeks; 2014 has 52.
    assert next_period("2014-W52") == "2015-W01"
    assert next_period("2015-W53") == "2016-W01"


@pytest.mark.parametrize("key", ["9999", "9999-Q4", "9999-12", "9999-12-31", "9999-W52"])
def test_no_period_follows_one_that_ends_on_the_last_day(key):
    with pytest.raises(PeriodError, match="last representable day"):
        next_period(key)


def test_ranges_and_subperiods_reach_the_last_day():
    assert period_range("9998", "9999") == ["9998", "9999"]
    assert period_range("9999-Q3", "9999-Q4") == ["9999-Q3", "9999-Q4"]
    assert period_range("9999-12-30", "9999-12-31") == ["9999-12-30", "9999-12-31"]
    assert period_range("9999-W50", "9999-W52") == ["9999-W50", "9999-W51", "9999-W52"]
    assert subperiods("9999", G.QUARTERLY) == ["9999-Q1", "9999-Q2", "9999-Q3", "9999-Q4"]
    assert subperiods("9999-Q4", G.MONTHLY) == ["9999-10", "9999-11", "9999-12"]
    assert subperiods("9999-12", G.WEEKLY) == ["9999-W48", "9999-W49", "9999-W50", "9999-W51", "9999-W52"]


def test_period_range_inclusive():
    assert period_range("2014-Q1", "2014-Q3") == ["2014-Q1", "2014-Q2", "2014-Q3"]
    assert period_range("2014-11", "2015-02") == ["2014-11", "2014-12", "2015-01", "2015-02"]


def test_period_range_single():
    assert period_range("2014-05", "2014-05") == ["2014-05"]


def test_period_range_rejects_mixed_granularity():
    with pytest.raises(PeriodError):
        period_range("2014-01", "2014-Q3")


def test_period_range_rejects_reversed():
    with pytest.raises(PeriodError):
        period_range("2014-09", "2014-01")


def test_subperiods_months_of_quarter():
    assert subperiods("2014-Q3", G.MONTHLY) == ["2014-07", "2014-08", "2014-09"]


def test_subperiods_include_straddling_weeks():
    weeks = subperiods("2014-09", G.WEEKLY)
    # W36 starts Sep 1; the preceding week (ending Aug 31) is excluded,
    # the trailing week W40 straddles into October and is included.
    assert weeks[0] == "2014-W36"
    assert weeks[-1] == "2014-W40"


def test_subperiods_same_granularity_is_identity():
    assert subperiods("2014-09", G.MONTHLY) == ["2014-09"]


def test_subperiods_rejects_coarser_target():
    with pytest.raises(PeriodError):
        subperiods("2014-09", G.YEARLY)


def test_period_contains():
    assert period_contains("2014-Q3", D(2014, 9, 30))
    assert not period_contains("2014-Q3", D(2014, 10, 1))
    assert period_contains("2014", D(2014, 1, 1))


@settings(max_examples=300, deadline=None)
@given(
    st.dates(min_value=D(1990, 1, 1), max_value=D(2100, 12, 31)),
    st.sampled_from(list(Granularity)),
)
def test_every_date_lands_inside_its_own_period(day, granularity):
    key = period_of(day, granularity)
    _, first, last = period(key)  # never raises for generated keys
    assert first <= day <= last
    assert period_contains(key, day)
    # the following period starts strictly after this one ends
    assert period(next_period(key)).first == last + dt.timedelta(days=1)


# -- the cached period table --------------------------------------------------
# `periods.period` parses a key once and caches the record; these tests
# check the record against plain calendar arithmetic (`oracles.period_bounds`)
# and that sharing it never leaks a mutable result or a cached failure.

_EDGES = [D.min, D.min + dt.timedelta(days=6), D(1, 12, 31), D(9999, 1, 1), D(9999, 12, 27), D.max]


def _clear_period_caches():
    periods.period.cache_clear()
    periods.subperiod_windows.cache_clear()


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.dates(), st.sampled_from(_EDGES)),
    st.sampled_from(list(Granularity)),
    st.booleans(),
)
def test_period_bounds_match_calendar_arithmetic(day, granularity, cold):
    if cold:
        _clear_period_caches()
    key = period_of(day, granularity)
    expected = period_bounds(key)
    for _ in range(2):  # the parse, then the cached record
        assert period(key) == (granularity, *expected)
        assert granularity_of(key) is granularity
    assert expected[0] <= day <= expected[1]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.dates(), st.sampled_from(_EDGES)),
    st.sampled_from(list(Granularity)),
    st.sampled_from(list(Granularity)),
)
def test_subperiod_windows_cover_the_period_day_by_day(day, g1, g2):
    fine, coarse = sorted((g1, g2), key=lambda g: g.ordinal)
    key = period_of(day, coarse)
    windows = periods.subperiod_windows(key, fine)
    assert [sub for sub, _, _ in windows] == subperiods(key, fine)
    lo, hi = period_bounds(key)
    assert windows[0][1] == lo and windows[-1][2] == hi
    for sub, first, last in windows:
        sub_lo, sub_hi = period_bounds(sub)
        assert (first, last) == (max(sub_lo, lo), min(sub_hi, hi))
    for (_, _, last), (_, first, _) in zip(windows, windows[1:]):
        assert first == last + dt.timedelta(days=1)


def test_returned_lists_are_fresh_copies():
    keys = period_range("2014-01", "2014-03")
    keys.append("garbage")
    keys[0] = "1999-01"
    assert period_range("2014-01", "2014-03") == ["2014-01", "2014-02", "2014-03"]
    months = subperiods("2014-Q3", G.MONTHLY)
    months.clear()
    assert subperiods("2014-Q3", G.MONTHLY) == ["2014-07", "2014-08", "2014-09"]
    same = subperiods("2014-09", G.MONTHLY)
    same.append("2014-10")
    assert subperiods("2014-09", G.MONTHLY) == ["2014-09"]
    assert isinstance(periods.subperiod_windows("2014-Q3", G.MONTHLY), tuple)


_BAD_KEYS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["0000", "0000-Q4", "0000-W01", "2014-13", "2014-W53", "2015-W54", "2014-02-29",
                     "2014-09\n", "\uff12\uff10\uff11\uff14", "9999-W53", "10000"]),
)


@settings(max_examples=300, deadline=None)
@given(_BAD_KEYS)
def test_a_rejected_key_raises_the_same_message_every_time_and_is_not_cached(key):
    try:
        period(key)
    except PeriodError as exc:
        first = str(exc)
    else:
        return  # st.text drew a valid key
    cached = periods.period.cache_info().currsize
    for call in (period, period, next_period):
        with pytest.raises(PeriodError) as exc:
            call(key)
        assert str(exc.value) == first
    with pytest.raises(PeriodError):
        subperiods(key, G.DAILY)
    assert periods.period.cache_info().currsize == cached


def test_the_period_caches_are_bounded():
    assert periods.period.cache_info().maxsize is not None
    assert periods.subperiod_windows.cache_info().maxsize is not None

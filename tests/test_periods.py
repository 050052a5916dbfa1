"""Calendar period keys: formatting, parsing, iteration, containment."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbiosis_kit.model import Granularity
from symbiosis_kit.periods import (
    PeriodError,
    end_date,
    granularity_of,
    next_period,
    parse_period_key,
    period_contains,
    period_of,
    period_range,
    start_date,
    subperiods,
)

D = dt.date
G = Granularity


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
    assert start_date("2015-W01") == D(2014, 12, 29)
    assert end_date("2015-W01") == D(2015, 1, 4)


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
        parse_period_key(bad)


def test_parse_period_key_returns_granularity_and_canonical_key():
    assert parse_period_key("2014-Q3") == (G.QUARTERLY, "2014-Q3")


def test_month_bounds_handle_leap_february():
    assert start_date("2016-02") == D(2016, 2, 1)
    assert end_date("2016-02") == D(2016, 2, 29)
    assert end_date("2015-02") == D(2015, 2, 28)


def test_end_date_at_the_end_of_the_calendar():
    assert end_date("9999") == D(9999, 12, 31)
    assert end_date("9999-Q4") == D(9999, 12, 31)
    assert end_date("9999-12") == D(9999, 12, 31)
    assert end_date("9999-W52") == dt.date.max  # the week runs past the last representable day


def test_next_period_rollovers():
    assert next_period("2014-12") == "2015-01"
    assert next_period("2014-Q4") == "2015-Q1"
    assert next_period("2014-12-31") == "2015-01-01"
    assert next_period("2014") == "2015"
    # 2015 has 53 ISO weeks; 2014 has 52.
    assert next_period("2014-W52") == "2015-W01"
    assert next_period("2015-W53") == "2016-W01"


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
    parse_period_key(key)  # never raises for generated keys
    assert start_date(key) <= day <= end_date(key)
    assert period_contains(key, day)
    # the following period starts strictly after this one ends
    assert start_date(next_period(key)) == end_date(key) + dt.timedelta(days=1)

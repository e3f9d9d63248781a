from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from spock import clock

# iso() renders years below 1000 without padding, which neither parser
# has ever accepted; stamps on disk are four-digit years.
instants = st.datetimes(
    min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)
).map(lambda dt: dt.replace(microsecond=0, tzinfo=timezone.utc))


@given(instants)
def test_parse_iso_round_trips(dt):
    assert clock.parse_iso(clock.iso(dt)) == dt


@given(instants)
def test_parse_iso_basic_round_trips(dt):
    assert clock.parse_iso_basic(clock.iso_basic(dt)) == dt


def test_parsers_return_utc():
    assert clock.parse_iso("2026-08-10T12:00:00Z").tzinfo is timezone.utc
    assert clock.parse_iso_basic("20260810T120000Z").tzinfo is timezone.utc


@pytest.mark.parametrize(
    "text",
    [
        "2026-8-1T1:2:3Z",  # unpadded
        "2026-08-10T12:00:00",  # missing Z
        "2026-08-10T12:00:00+00:00",
        "2026-08-10T12:00:00Z ",  # trailing whitespace
        " 2026-08-10T12:00:00Z",
        "2026-08-10T12:00:00Z\n",
        "２０２６-08-10T12:00:00Z",  # full-width digits
        "2026-13-10T12:00:00Z",  # month 13
        "0000-08-10T12:00:00Z",  # year 0000
        "2026-02-30T12:00:00Z",
        "2026-08-10T24:00:00Z",
        "2026-08-10t12:00:00z",
        "20260810T120000Z",  # the other form
        "",
    ],
)
def test_parse_iso_rejects_malformed(text):
    with pytest.raises(ValueError):
        clock.parse_iso(text)


@pytest.mark.parametrize(
    "text",
    [
        "2026081T12000Z",  # unpadded
        "20260810T120000",  # missing Z
        "20260810T120000+0000",
        "20260810T120000Z ",  # trailing whitespace
        "２０２６0810T120000Z",  # full-width digits
        "20261310T120000Z",  # month 13
        "00000810T120000Z",  # year 0000
        "2026-08-10T12:00:00Z",  # the other form
        "",
    ],
)
def test_parse_iso_basic_rejects_malformed(text):
    with pytest.raises(ValueError):
        clock.parse_iso_basic(text)

"""UTC time source and the two timestamp renderings used on disk.

All ledger timestamps have second resolution. Call sites go through this
module's :func:`now_utc` attribute so a fake clock can be swapped in.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

SECOND = timedelta(seconds=1)


def now_utc() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


def iso(dt: datetime) -> str:
    """Extended ISO-8601, e.g. 2026-08-10T12:00:00Z."""
    return dt.astimezone(timezone.utc).replace(microsecond=0).strftime("%Y-%m-%dT%H:%M:%SZ")


def iso_basic(dt: datetime) -> str:
    """Basic ISO-8601, filesystem-safe, e.g. 20260810T120000Z."""
    return dt.astimezone(timezone.utc).replace(microsecond=0).strftime("%Y%m%dT%H%M%SZ")


# Exactly the zero-padded forms written above, ASCII digits only; any
# other spelling of a time is rejected rather than guessed at.
_ISO_RE = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)
_ISO_BASIC_RE = re.compile(r"(\d{4})(\d\d)(\d\d)T(\d\d)(\d\d)(\d\d)Z", re.ASCII)


def _parse(pattern: re.Pattern, text: str) -> datetime:
    match = pattern.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed timestamp: {text!r}")
    return datetime(*map(int, match.groups()), tzinfo=timezone.utc)


def parse_iso(text: str) -> datetime:
    return _parse(_ISO_RE, text)


def parse_iso_basic(text: str) -> datetime:
    return _parse(_ISO_BASIC_RE, text)

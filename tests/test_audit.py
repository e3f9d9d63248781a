"""Admission decisions go to ``audit.log``, which is audit history only:
``open`` never replays it, ``check`` never decides on it, and ``validate``
verifies every line of it."""

from __future__ import annotations

import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import spock
from spock import Ledger, rungate
from spock.records import LedgerEvent
from tests.conftest import ROOT_TEXT, register_and_build

GHOST = "20181001T120000Z-" + "d" * 64


def audit_lines(ledger: Ledger) -> list[bytes]:
    return ledger.audit_path.read_bytes().split(b"\n")[:-1]


def test_each_check_writes_one_fsynced_audit_line(trusted_ledger, monkeypatch):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    ledger.sync = True
    log_before = ledger.log_path.read_bytes()
    opened: dict[int, Path] = {}
    synced: list[Path | None] = []
    real_open, real_fsync = os.open, os.fsync

    def recording_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        opened[fd] = Path(path)
        return fd

    def recording_fsync(fd):
        synced.append(opened.get(fd))
        return real_fsync(fd)

    def forbidden(*args, **kwargs):
        raise AssertionError("check must not take the writer lock or append to ledger.log")

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(Ledger, "append", forbidden)
    monkeypatch.setattr(Ledger, "exclusive", forbidden)
    for n, image_id in enumerate((image.image_id, GHOST, image.image_id), 1):
        rungate.check_runnable(ledger, image_id)
        assert synced == [ledger.audit_path] * n
        assert len(audit_lines(ledger)) == n
    assert ledger.log_path.read_bytes() == log_before
    records, issues = ledger.read_audit()
    assert issues == []
    assert [(r.event, r.data["image_id"], r.data["verdict"]) for r in records] == [
        ("admission", image.image_id, "allow"),
        ("admission", GHOST, "deny"),
        ("admission", image.image_id, "allow"),
    ]


def test_flipped_audit_byte_fails_validate_but_not_check(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    for _ in range(3):
        rungate.check_runnable(ledger, image.image_id)
    assert ledger.validate_all().ok  # an earlier clean result must not hide the flip
    lines = audit_lines(ledger)
    flipped = bytearray(lines[1])
    flipped[150] ^= 0x01
    lines[1] = bytes(flipped)
    ledger.audit_path.write_bytes(b"\n".join(lines) + b"\n")

    reopened = Ledger.open(ledger.root, sync=False)
    assert reopened.issues == []
    report = reopened.validate_all()
    assert not report.ok
    assert {e.ref for e in report.failures()} == {"audit:line:2"}
    _, issues = reopened.read_audit()
    assert len(report.failures()) == len(issues) >= 1
    # audit history is not trust input: the lineage alone decides
    decision = rungate.check_runnable(reopened, image.image_id)
    assert decision.allowed
    assert decision.reasons == ()


def test_torn_audit_tail_is_repaired_by_next_check(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    rungate.check_runnable(ledger, image.image_id)
    rungate.check_runnable(ledger, GHOST)
    intact = ledger.audit_path.read_bytes()
    ledger.audit_path.write_bytes(intact + intact[: len(intact) // 3])

    records, issues = ledger.read_audit()
    assert (len(records), issues) == (2, [])
    rungate.check_runnable(ledger, image.image_id)
    data = ledger.audit_path.read_bytes()
    assert data.startswith(intact)
    assert data.count(b"\n") == 3 and data.endswith(b"\n")
    records, issues = ledger.read_audit()
    assert issues == []
    assert [r.data["verdict"] for r in records] == ["allow", "deny", "allow"]
    assert ledger.validate_all().ok


def test_legacy_admissions_in_ledger_log_open_validate_and_check(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    # earlier versions appended each decision to ledger.log
    at = datetime(2026, 1, 1, tzinfo=timezone.utc)
    for verdict, image_id in (("allow", image.image_id), ("deny", GHOST)):
        decision = {"image_id": image_id, "verdict": verdict, "reasons": [],
                    "checked_at": "2026-01-01T00:00:00Z"}
        with ledger.exclusive():
            ledger.append(LedgerEvent(event="admission", at=at, data=decision))
    log_before = ledger.log_path.read_bytes()

    legacy = Ledger.open(ledger.root, sync=False)
    assert [e.data["verdict"] for e in legacy.events if e.event == "admission"] == ["allow", "deny"]
    assert legacy.validate_all().ok
    assert rungate.check_runnable(legacy, image.image_id).allowed
    assert not rungate.check_runnable(legacy, GHOST).allowed
    assert legacy.log_path.read_bytes() == log_before
    assert len(legacy.read_audit()[0]) == 2
    assert legacy.validate_all().ok


CHECKER = """
import sys
from spock import Ledger, rungate
ledger = Ledger.open(sys.argv[1])
for _ in range(int(sys.argv[3])):
    rungate.check_runnable(ledger, sys.argv[2])
ledger.close()
"""


def test_concurrent_checks_leave_one_well_formed_line_each(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    checks = 25
    targets = [image.image_id, GHOST, image.image_id, GHOST[:-1] + "e"]
    env = dict(os.environ, PYTHONPATH=str(Path(spock.__file__).parents[1]))
    procs = [  # four processes, never more
        subprocess.Popen(
            [sys.executable, "-c", CHECKER, str(ledger.root), target, str(checks)], env=env
        )
        for target in targets
    ]
    assert [p.wait(timeout=120) for p in procs] == [0] * 4

    records, issues = ledger.read_audit()
    assert issues == []
    assert len(audit_lines(ledger)) == len(records) == 4 * checks
    by_id: dict[str, int] = {}
    for r in records:
        by_id[r.data["image_id"]] = by_id.get(r.data["image_id"], 0) + 1
    assert by_id == {image.image_id: 2 * checks, GHOST: checks, GHOST[:-1] + "e": checks}
    assert ledger.validate_all().ok

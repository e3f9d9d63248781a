"""Admission control: is an image still safe to run?

An image is runnable only when its whole story checks out: the image and
its recipe are live and signature-valid, every ancestor up to the root
is live and signature-valid, and every signer on that path is still
trusted. Unknown images are denied, not errored, and any detected
tampering of ``ledger.log`` denies everything: a log that lies is worse
than no log. That rule lives in ``provenance.lineage_problems``, which
``child``, ``build`` and ``diff-rebuild`` ask too; this module only
records and acts on its answer.

Every decision is written to the ledger's ``audit.log``, which is history
only: it is never replayed and never decides a later check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from . import clock
from .errors import SpawnError
from .ledger import Ledger
from .provenance import lineage_problems
from .records import LedgerEvent

VERDICT_ALLOW = "allow"
VERDICT_DENY = "deny"


@dataclass(frozen=True)
class AdmissionDecision:
    image_id: str
    verdict: str
    reasons: tuple[str, ...]
    checked_at: datetime

    @property
    def allowed(self) -> bool:
        return self.verdict == VERDICT_ALLOW

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "checked_at": clock.iso(self.checked_at),
        }


def check_runnable(ledger: Ledger, image_id: str) -> AdmissionDecision:
    """Deny-by-default admission check over the image's full lineage."""
    ledger.refresh()
    problems = lineage_problems(ledger, image_id)
    decision = AdmissionDecision(
        image_id=image_id,
        verdict=VERDICT_ALLOW if not problems else VERDICT_DENY,
        reasons=tuple(dict.fromkeys(map(str, problems))),
        checked_at=clock.now_utc(),
    )
    ledger.audit(LedgerEvent(event="admission", at=decision.checked_at, data=decision.to_dict()))
    return decision


@dataclass
class RunOutcome:
    decision: AdmissionDecision
    spawned: bool
    exit_status: int | None = None
    command: list[str] = field(default_factory=list)


def run(ledger: Ledger, image_id: str, command_template: str) -> RunOutcome:
    """Gate, then launch: spawn the configured run command only when the
    admission check allows, and propagate the child's exit status."""
    import shlex
    import subprocess

    decision = check_runnable(ledger, image_id)
    if not decision.allowed:
        return RunOutcome(decision=decision, spawned=False)
    command = shlex.split(command_template.format(image=image_id))
    try:
        proc = subprocess.run(command, check=False)
    except OSError as exc:
        raise SpawnError(f"cannot spawn run command: {exc}") from exc
    return RunOutcome(
        decision=decision, spawned=True, exit_status=proc.returncode, command=command
    )

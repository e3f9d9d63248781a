"""The benchmark's tracer finds every spock name it wraps, and puts every
original back. A refactor that drops or moves one of those names would
otherwise break every traced benchmark run."""

from __future__ import annotations

import importlib
import os
from pathlib import Path

import spock.builder
import spock.crypto
import spock.provenance
import spock.recipe
import spock.revocation
import spock.rungate
from spock.ledger import Ledger

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

OWNERS = (
    spock.rungate,
    spock.builder,
    spock.builder.MockEngine,
    spock.provenance,
    spock.crypto,
    spock.recipe,
    spock.revocation,
    os,
    Ledger,
)

# names a refactor is most likely to drop: ``rungate`` and ``builder`` must
# keep importing ``lineage_problems`` by name
MUST_HOOK = {
    (spock.rungate, "check_runnable"),
    (spock.rungate, "lineage_problems"),
    (spock.builder, "lineage_problems"),
    (spock.provenance, "lineage_problems"),
    (spock.recipe, "register_child"),
    (spock.builder, "build"),
    (spock.builder.MockEngine, "build"),
    (Ledger, "open"),
    (Ledger, "append"),
    (Ledger, "refresh"),
    (Ledger, "resolve"),
    (Ledger, "validate_all"),
}


def test_tracer_installs_every_hook_and_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        hooked = {(owner, attr) for owner, attr, _ in tracer._saved}
        assert MUST_HOOK <= hooked
        for owner, attr, original in tracer._saved:
            current = vars(owner)[attr]
            if isinstance(current, classmethod):
                current, original = current.__func__, original.__func__
            assert current is not original and current.__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, names in before.items():
        after = vars(owner)
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items()), owner

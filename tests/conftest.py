from __future__ import annotations

import hashlib
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import spock.clock
from spock import Ledger, MockEngine, builder, crypto, recipe
from spock.ledger import append_line
from spock.records import LedgerEvent, canonical_json

FIXTURES = Path(__file__).parent / "fixtures"

ROOT_TEXT = "FROM alpine:3.18\nRUN echo hello\nRUN echo world\n"


class FakeClock:
    """Steppable UTC clock for deterministic builds and golden output."""

    def __init__(self, start: str = "2026-01-02T03:04:05Z"):
        self.now = datetime.strptime(start, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)

    def __call__(self) -> datetime:
        return self.now

    def tick(self, seconds: int = 1) -> None:
        self.now += timedelta(seconds=seconds)


@pytest.fixture
def fake_clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(spock.clock, "now_utc", fake)
    return fake


@pytest.fixture(scope="session")
def keypair():
    return crypto.keygen()


@pytest.fixture(scope="session")
def second_keypair():
    return crypto.keygen()


@pytest.fixture
def fresh_ledger(tmp_path) -> Ledger:
    return Ledger.init(tmp_path / "ledger", sync=False)


@pytest.fixture
def trusted_ledger(fresh_ledger, keypair):
    """Ledger with one trusted entity 'alice'; yields (ledger, signer, key)."""
    public, private = keypair
    fresh_ledger.add_entity("alice", public)
    return fresh_ledger, "alice", private


def craft_text(base: str, want_prefix: str, taken_first_chars: set[str]) -> str:
    """Append a nonce comment until the content hash starts with
    ``want_prefix`` and its first character collides with nothing in
    ``taken_first_chars``."""
    n = 0
    while True:
        text = f"{base}# nonce {n}\n"
        h = hashlib.sha256(text.encode()).hexdigest()
        if h.startswith(want_prefix) and h[0] not in taken_first_chars:
            return text
        n += 1


@pytest.fixture
def fig_tree(trusted_ledger):
    """Three-node chain whose short labels are 5 -> 3 -> 1.

    Recipe contents are nonce-tuned so the root hash starts with '5',
    its child with '3', and the grandchild with '1', making the one
    character prefixes unique labels.
    """
    ledger, signer, private = trusted_ledger
    engine = MockEngine(seed="fig")

    taken: set[str] = set()
    root_text = craft_text("FROM alpine:3.18\nRUN echo base\n", "5", taken)
    root = recipe.register_root(ledger, root_text, signer, private)
    taken.add(root.recipe_hash[0])
    root_image = builder.build(ledger, root.recipe_hash, engine, signer, private)

    mid_text = craft_text(
        f"FROM trusted:{root_image.image_id}\nRUN echo middle\n", "3", taken
    )
    mid = recipe.register_child(ledger, mid_text, signer, private)
    taken.add(mid.recipe_hash[0])
    mid_image = builder.build(ledger, mid.recipe_hash, engine, signer, private)

    leaf_text = craft_text(
        f"FROM trusted:{mid_image.image_id}\nRUN echo leaf\n", "1", taken
    )
    leaf = recipe.register_child(ledger, leaf_text, signer, private)
    leaf_image = builder.build(ledger, leaf.recipe_hash, engine, signer, private)

    return {
        "ledger": ledger,
        "signer": signer,
        "private": private,
        "engine": engine,
        "root": root,
        "root_image": root_image,
        "mid": mid,
        "mid_image": mid_image,
        "leaf": leaf,
        "leaf_image": leaf_image,
    }


def register_and_build(ledger, text, signer, private, seed="0"):
    rec = recipe.register_root(ledger, text, signer, private)
    image = builder.build(ledger, rec.recipe_hash, MockEngine(seed=seed), signer, private)
    return rec, image


# Manifests that digest to the id they are filed under but are not shaped
# as spock writes them; each must read as tampered, never crash a reader.
MALFORMED_MANIFESTS = {
    "not-an-object": ["created_at", "reason", "items"],
    "items-not-a-list": {"created_at": "2026-01-02T03:04:05Z", "reason": "r", "items": "x"},
    "item-missing-digest": {
        "created_at": "2026-01-02T03:04:05Z", "reason": "r", "items": [{"type": "recipe", "id": "a"}],
    },
    "item-unknown-type": {
        "created_at": "2026-01-02T03:04:05Z", "reason": "r",
        "items": [{"type": "script", "id": "a", "digest": "d"}],
    },
    "item-name-with-slash": {
        "created_at": "2026-01-02T03:04:05Z", "reason": "r",
        "items": [{"type": "recipe", "id": "../../ledger", "digest": "d"}],
    },
    "bad-created-at": {"created_at": "yesterday", "reason": "r", "items": []},
}


def forge_line(ledger: Ledger, record) -> None:
    """Append ``record`` to ``ledger.log`` as a hand edit would, past the
    write rule that refuses it, and catch ``ledger`` up on it."""
    append_line(ledger.log_path, record, sync=False)
    ledger.refresh()


def file_crafted_bundle(ledger: Ledger, body, items=None, purged=()) -> str:
    """File ``body`` as a bundle manifest under the id it digests to, with
    ``items`` (file name -> bytes) beside it, and forge a remove event
    that names it and lists the ``(type, id)`` pairs in ``purged``;
    returns the bundle id."""
    bundle_id = crypto.digest(canonical_json(body))
    manifest = {**body, "bundle_id": bundle_id} if isinstance(body, dict) else body
    bundle_dir = ledger.archive_root / bundle_id
    bundle_dir.mkdir(parents=True)
    (bundle_dir / "manifest.json").write_text(json.dumps(manifest))
    for name, payload in (items or {}).items():
        (bundle_dir / name).write_bytes(payload)
    data = {"target_type": "recipe", "target": "crafted", "reason": "r", "bundle_id": bundle_id,
            "purged_recipes": [i for t, i in purged if t == "recipe"],
            "purged_images": [i for t, i in purged if t == "image"]}
    forge_line(ledger, LedgerEvent(event="remove", at=spock.clock.now_utc(), data=data))
    return bundle_id

from __future__ import annotations

import json

import pytest

from spock import Ledger, crypto, recipe, rungate
from spock.errors import (
    AlreadyRegisteredError,
    DuplicateEntityError,
    IntegrityError,
    LedgerExistsError,
    NotFoundError,
    RebuildDeniedError,
    SpockError,
)
from spock.records import (
    LedgerEvent,
    RecipeRecord,
    STATUS_LIVE,
    canonical_json,
    record_bytes,
)
from spock.ledger import format_log_line
from tests.conftest import ROOT_TEXT, register_and_build

from datetime import datetime, timezone


def test_init_fresh_directory(tmp_path):
    ledger = Ledger.init(tmp_path / "ledger")
    assert ledger.entities == {}
    assert ledger.recipes == {}
    assert ledger.images == {}
    for sub in ("keys", "archive", "index"):
        assert (tmp_path / "ledger" / sub).is_dir()


def test_init_existing_ledger_fails(tmp_path):
    Ledger.init(tmp_path / "ledger")
    with pytest.raises(LedgerExistsError):
        Ledger.init(tmp_path / "ledger")


def test_init_nonempty_directory_fails(tmp_path):
    target = tmp_path / "ledger"
    target.mkdir()
    (target / "junk").write_text("x")
    with pytest.raises(LedgerExistsError):
        Ledger.init(target)


def test_init_then_open_identical_empty_state(tmp_path):
    Ledger.init(tmp_path / "ledger")
    reopened = Ledger.open(tmp_path / "ledger")
    assert reopened.entities == {}
    assert reopened.recipes == {}
    assert reopened.images == {}
    assert reopened.meta is not None


def test_open_missing_path(tmp_path):
    with pytest.raises(NotFoundError):
        Ledger.open(tmp_path / "nothing")


def test_add_entity_listed_trusted(fresh_ledger, keypair):
    public, _ = keypair
    entity = fresh_ledger.add_entity("alice", public)
    assert entity.status == "trusted"
    assert fresh_ledger.get_entity("alice").public_key == public


def test_add_entity_twice_fails(fresh_ledger, keypair):
    public, _ = keypair
    fresh_ledger.add_entity("alice", public)
    with pytest.raises(DuplicateEntityError):
        fresh_ledger.add_entity("alice", public)


def test_list_entities_sorted(fresh_ledger, keypair, second_keypair):
    fresh_ledger.add_entity("bob", second_keypair[0])
    fresh_ledger.add_entity("alice", keypair[0])
    assert [e.entity_id for e in fresh_ledger.list_entities()] == ["alice", "bob"]


def test_add_entity_writes_pem(fresh_ledger, keypair):
    public, _ = keypair
    fresh_ledger.add_entity("alice", public)
    pem = (fresh_ledger.root / "keys" / "alice.pem").read_text()
    assert crypto.PublicKey.from_pem(pem) == public


def test_put_recipe_unknown_signer(fresh_ledger, keypair):
    _, private = keypair
    content = ROOT_TEXT.encode()
    record = RecipeRecord(
        recipe_hash=crypto.digest(content),
        kind="root",
        content=content,
        signature=crypto.sign(content, private, "ghost"),
        signer_id="ghost",
        parent_image_id=None,
        registered_at=datetime(2026, 1, 1, tzinfo=timezone.utc),
    )
    with pytest.raises(IntegrityError):
        fresh_ledger.put_recipe(record)


def test_second_live_image_for_recipe_denied(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    clone = ledger.images[image.image_id]
    from spock.records import ImageRecord

    second = ImageRecord(
        image_id="20990101T000000Z-" + rec.recipe_hash,
        recipe_hash=rec.recipe_hash,
        parent_image_id=None,
        image_digest=clone.image_digest,
        step_digests=(),
        signature=clone.signature,
        signer_id=signer,
    )
    with pytest.raises(RebuildDeniedError):
        ledger.put_image(second)


def test_list_by_status_returns_the_record(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    live = ledger.list_recipes(status=STATUS_LIVE)
    assert [r.recipe_hash for r in live] == [rec.recipe_hash]


def test_list_filters(trusted_ledger):
    ledger, signer, private = trusted_ledger
    recipe.register_root(ledger, ROOT_TEXT, signer, private)
    assert ledger.list_recipes(kind="child") == []
    assert ledger.list_recipes(signer="nobody") == []
    assert len(ledger.list_recipes(kind="root", signer=signer)) == 1


def test_resolve_prefix(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    kind, found = ledger.resolve(rec.recipe_hash[:8])
    assert kind == "recipe" and found.recipe_hash == rec.recipe_hash
    kind, found = ledger.resolve(image.image_id[:20])
    assert kind == "image" and found.image_id == image.image_id
    with pytest.raises(NotFoundError):
        ledger.resolve("ffffffffffff")


def test_validate_untouched_ledger_passes(trusted_ledger):
    ledger, signer, private = trusted_ledger
    register_and_build(ledger, ROOT_TEXT, signer, private)
    report = ledger.validate_all()
    assert report.ok
    assert report.entries  # every record produced check entries


def _flip_byte_on_line(ledger_dir, line_no: int, offset: int) -> None:
    log = ledger_dir / "ledger.log"
    lines = log.read_bytes().split(b"\n")
    target = bytearray(lines[line_no - 1])
    target[offset] ^= 0x01
    lines[line_no - 1] = bytes(target)
    log.write_bytes(b"\n".join(lines))


def test_validate_flags_exactly_the_flipped_record(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, _ = register_and_build(ledger, ROOT_TEXT, signer, private)
    # line 1 meta, 2 entity, 3 recipe, 4 image: flip a byte inside the
    # recipe's stored signature (within the base64 payload)
    _flip_byte_on_line(ledger.root, 3, 200)
    reopened = Ledger.open(ledger.root)
    report = reopened.validate_all()
    assert not report.ok
    tamper = [e for e in report.failures() if e.check in ("record-digest", "parse")]
    assert {e.ref for e in tamper} == {"line:3"}


def test_validate_flags_distrusted_signer_live_records(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    # synthesize a distrust event that purges nothing, leaving alice's
    # live recipe behind as the inconsistency to be flagged
    with ledger.exclusive():
        ledger.append(
            LedgerEvent(
                event="distrust",
                at=datetime(2026, 1, 1, tzinfo=timezone.utc),
                data={
                    "entity_id": signer,
                    "reason": "fixture",
                    "bundle_id": "",
                    "purged_recipes": [],
                    "purged_images": [],
                },
            )
        )
    report = ledger.validate_all()
    flagged = [e for e in report.failures() if e.check == "signer-trusted"]
    assert [e.ref for e in flagged] == [f"recipe:{rec.recipe_hash}"]


def test_unpadded_timestamp_with_valid_digest_is_a_parse_issue(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    # line 3 is the recipe: rewrite its registered_at unpadded, with a
    # digest and base64 that match the rewritten bytes
    lines = ledger.log_path.read_bytes().split(b"\n")
    _, rtype, payload_b64 = lines[2].decode("ascii").split(" ")
    data = json.loads(crypto.decode_text(payload_b64))
    data["registered_at"] = "2026-1-2T3:4:5Z"
    payload = canonical_json(data)
    lines[2] = format_log_line(crypto.digest(payload), rtype, payload).rstrip(b"\n")
    ledger.log_path.write_bytes(b"\n".join(lines))

    reopened = Ledger.open(ledger.root)
    assert [(i.ref, i.check) for i in reopened.issues] == [("line:3", "parse")]
    assert "line:3" in {e.ref for e in reopened.validate_all().failures() if e.check == "parse"}
    decision = rungate.check_runnable(reopened, image.image_id)
    assert not decision.allowed
    assert "signature-invalid:line:3" in decision.reasons


def test_close_reopen_round_trips_records_bit_exactly(trusted_ledger):
    ledger, signer, private = trusted_ledger
    register_and_build(ledger, ROOT_TEXT, signer, private)
    raw = ledger.log_path.read_bytes()
    before = {h: record_bytes(r) for h, r in ledger.recipes.items()}
    before |= {i: record_bytes(r) for i, r in ledger.images.items()}
    before |= {e: record_bytes(r) for e, r in ledger.entities.items()}
    reopened = Ledger.open(ledger.root)
    after = {h: record_bytes(r) for h, r in reopened.recipes.items()}
    after |= {i: record_bytes(r) for i, r in reopened.images.items()}
    after |= {e: record_bytes(r) for e, r in reopened.entities.items()}
    assert before == after
    assert reopened.log_path.read_bytes() == raw


def test_torn_tail_is_discarded_on_open(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    with open(ledger.log_path, "ab") as fh:
        fh.write(b"deadbeef recipe SGVsbG8")  # no trailing newline
    reopened = Ledger.open(ledger.root)
    assert rec.recipe_hash in reopened.recipes
    assert not reopened.issues
    assert reopened.validate_all().ok


def test_writer_repairs_torn_tail(trusted_ledger, keypair, second_keypair):
    ledger, signer, private = trusted_ledger
    recipe.register_root(ledger, ROOT_TEXT, signer, private)
    good_size = ledger.log_path.stat().st_size
    with open(ledger.log_path, "ab") as fh:
        fh.write(b"deadbeef recipe SGVsbG8")
    reopened = Ledger.open(ledger.root)
    reopened.add_entity("bob", second_keypair[0])
    data = reopened.log_path.read_bytes()
    assert b"deadbeef" not in data
    assert data.endswith(b"\n")
    assert len(data) > good_size


def test_writer_lock_excludes_other_handles(trusted_ledger):
    import fcntl

    ledger, signer, private = trusted_ledger
    other = Ledger.open(ledger.root)
    with ledger.exclusive():
        fd = other._lockfile()
        with pytest.raises(BlockingIOError):
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    # released: the other handle can now take the writer lock
    fcntl.flock(other._lockfile(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    fcntl.flock(other._lockfile(), fcntl.LOCK_UN)
    other.close()


def test_concurrent_handle_sees_new_records(trusted_ledger):
    ledger, signer, private = trusted_ledger
    reader = Ledger.open(ledger.root)
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    assert rec.recipe_hash not in reader.recipes
    reader.refresh()
    assert rec.recipe_hash in reader.recipes


def test_log_line_format(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    lines = ledger.log_path.read_text().splitlines()
    assert len(lines) == 3  # meta, entity, recipe
    for line in lines:
        rec_digest, rtype, payload_b64 = line.split(" ")
        payload = crypto.decode_text(payload_b64)
        assert crypto.digest(payload) == rec_digest
        assert json.loads(payload)["record"] == rtype
    stored = RecipeRecord.from_record_dict(
        json.loads(crypto.decode_text(lines[2].split(" ")[2]))
    )
    assert stored.content == ROOT_TEXT.encode()
    assert stored.recipe_hash == rec.recipe_hash


def test_append_requires_writer_lock(fresh_ledger):
    event = LedgerEvent(
        event="admission", at=datetime(2026, 1, 1, tzinfo=timezone.utc), data={}
    )
    with pytest.raises(SpockError):
        fresh_ledger.append(event)


def test_duplicate_recipe_hash_rejected(trusted_ledger):
    ledger, signer, private = trusted_ledger
    recipe.register_root(ledger, ROOT_TEXT, signer, private)
    with pytest.raises(AlreadyRegisteredError):
        recipe.register_root(ledger, ROOT_TEXT, signer, private)


def test_check_integrity_clean(trusted_ledger):
    ledger, signer, private = trusted_ledger
    register_and_build(ledger, ROOT_TEXT, signer, private)
    assert ledger.check_integrity() == []


def test_index_summary_written(tmp_path, keypair):
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger")
    ledger.add_entity("alice", public)
    register_and_build(ledger, ROOT_TEXT, "alice", private)
    summary = json.loads((ledger.root / "index" / "summary.json").read_text())
    assert summary["recipes"]["live"] == 1
    assert summary["images"]["live"] == 1

from __future__ import annotations

import base64
import binascii
import json
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from spock import Ledger, builder, crypto, recipe, revocation, rungate
from spock.builder import MockEngine
from spock.errors import (
    AlreadyRegisteredError,
    DuplicateEntityError,
    IntegrityError,
    LedgerExistsError,
    NotFoundError,
    RebuildDeniedError,
    SpockError,
)
from spock.crypto import Signature
from spock.records import (
    ImageRecord,
    LedgerEvent,
    RecipeRecord,
    STATUS_LIVE,
    canonical_json,
    record_bytes,
)
from spock.ledger import format_log_line, read_lines
from tests.conftest import ROOT_TEXT, forge_line, register_and_build

from datetime import datetime, timezone


def test_init_fresh_directory(tmp_path):
    ledger = Ledger.init(tmp_path / "ledger")
    assert ledger.entities == {}
    assert ledger.recipes == {}
    assert ledger.images == {}
    for sub in ("archive", "index"):
        assert (tmp_path / "ledger" / sub).is_dir()
    assert not (tmp_path / "ledger" / "keys").exists()


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


def test_ledger_with_a_keys_directory_still_opens(fresh_ledger, keypair):
    """Older versions wrote ``keys/<id>.pem``; such a ledger opens,
    validates and takes writes, and the key comes from ``ledger.log``."""
    public, _ = keypair
    (fresh_ledger.root / "keys").mkdir()
    (fresh_ledger.root / "keys" / "alice.pem").write_text(public.to_pem())
    reopened = Ledger.open(fresh_ledger.root, sync=False)
    reopened.add_entity("alice", public)
    assert Ledger.open(fresh_ledger.root, sync=False).get_entity("alice").public_key == public
    assert reopened.validate_all().ok


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
    before = fresh_ledger.log_path.read_bytes()
    with fresh_ledger.exclusive(), pytest.raises(IntegrityError):
        fresh_ledger.append(record)
    assert fresh_ledger.log_path.read_bytes() == before


@pytest.mark.parametrize(
    "from_ref, kind, stored_parent",
    [
        ("trusted:{a}", "child", "{b}"),  # another existing image
        ("trusted:{a}", "root", None),
        ("alpine:3.18", "child", "{a}"),
        ("trusted:{a}-gone", "child", "{a}-gone"),  # agrees, but no such image
    ],
)
def test_put_recipe_requires_the_fields_the_signed_from_line_gives(
    trusted_ledger, from_ref, kind, stored_parent
):
    ledger, signer, private = trusted_ledger
    _, image_a = register_and_build(ledger, ROOT_TEXT, signer, private)
    _, image_b = register_and_build(ledger, "FROM debian:12\nRUN echo b\n", signer, private)
    ids = {"a": image_a.image_id, "b": image_b.image_id}
    content = f"FROM {from_ref.format(**ids)}\nRUN echo child\n".encode()
    record = RecipeRecord(
        recipe_hash=crypto.digest(content),
        kind=kind,
        content=content,
        signature=crypto.sign(content, private, signer),
        signer_id=signer,
        parent_image_id=None if stored_parent is None else stored_parent.format(**ids),
        registered_at=datetime(2026, 1, 1, tzinfo=timezone.utc),
    )
    before = ledger.log_path.read_bytes()
    with ledger.exclusive(), pytest.raises(IntegrityError):
        ledger.append(record)
    assert ledger.log_path.read_bytes() == before
    assert record.recipe_hash not in ledger.recipes
    assert ledger.validate_all().ok


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
    before = ledger.log_path.read_bytes()
    with ledger.exclusive(), pytest.raises(RebuildDeniedError):
        ledger.append(second)
    assert ledger.log_path.read_bytes() == before


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
    # forge a distrust event that purges nothing, leaving alice's live
    # recipe behind as the inconsistency to be flagged
    forge_line(
        ledger,
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
        ),
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


def _line_of(data, rtype: str | None = None, payload: bytes | None = None) -> bytes:
    """A log line with a digest recomputed over its (possibly forged) payload."""
    payload = canonical_json(data) if payload is None else payload
    return format_log_line(crypto.digest(payload), rtype or data["record"], payload).rstrip(b"\n")


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


def _with_signature_value(data: dict, value: str) -> dict:
    return {**data, "signature": {**data["signature"], "value": value}}


def _error_text(fn) -> str:
    """The message the running interpreter gives for ``fn``'s failure."""
    try:
        fn()
    except Exception as exc:
        return str(exc)
    raise AssertionError("expected an error")


def _unpack_three(parts: list) -> None:
    _, _, _ = parts


RECIPE_HASH = crypto.digest(ROOT_TEXT.encode())
# one forged recipe line (line 3) per malformed class, and the exact
# (check, detail) replay reports for it
MALFORMED_LINES = {
    "non-ascii-byte": (
        lambda line, data: line[:100] + b"\xc3" + line[101:],
        "parse",
        "corrupt log line: 'ascii' codec can't decode byte 0xc3 in position 100: "
        "ordinal not in range(128)",
    ),
    "field-count": (
        lambda line, data: line + b" extra",
        "parse",
        "corrupt log line: " + _error_text(lambda: _unpack_three([1, 2, 3, 4])),
    ),
    "outer-base64": (
        lambda line, data: line[:80] + b"*" + line[81:],
        "parse",
        "corrupt log line: invalid base64 text: "
        + _error_text(lambda: base64.b64decode(b"ab*d", validate=True)),
    ),
    "non-json-payload": (
        lambda line, data: _line_of(data, "recipe", b"not json"),
        "parse",
        "corrupt log line: Expecting value: line 1 column 1 (char 0)",
    ),
    "json-array-payload": (
        lambda line, data: _line_of(data, "recipe", b'["recipe"]'),
        "parse",
        "corrupt log line: 'list' object has no attribute 'get'",
    ),
    "type-token-mismatch": (
        lambda line, data: _line_of(data, "image"),
        "parse",
        "corrupt log line: record type token mismatch",
    ),
    "unknown-record-type": (
        lambda line, data: _line_of({**data, "record": "bogus"}),
        "parse",
        "corrupt log line: unknown record type: bogus",
    ),
    "missing-field": (
        lambda line, data: _line_of(_without(data, "signer_id")),
        "parse",
        "corrupt log line: 'signer_id'",
    ),
    "nested-signature-base64": (
        lambda line, data: _line_of(_with_signature_value(data, data["signature"]["value"][:-1])),
        "parse",
        "corrupt log line: invalid base64 text: "
        + _error_text(lambda: base64.b64decode(b"abc", validate=True)),
    ),
    "stored-digest-mismatch": (
        lambda line, data: crypto.digest(b"other").encode("ascii") + line[64:],
        "record-digest",
        f"stored digest does not match record bytes (recipe:{RECIPE_HASH})",
    ),
}


@pytest.mark.parametrize("malformed", sorted(MALFORMED_LINES))
def test_replay_reports_each_malformed_line_exactly(trusted_ledger, malformed):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    forge, check, detail = MALFORMED_LINES[malformed]
    lines = ledger.log_path.read_bytes().split(b"\n")
    data = json.loads(crypto.decode_text(lines[2].split(b" ")[2].decode("ascii")))
    lines[2] = forge(lines[2], data)
    ledger.log_path.write_bytes(b"\n".join(lines))

    reopened = Ledger.open(ledger.root, sync=False)
    assert [(i.ref, i.check, i.detail) for i in reopened.issues] == [("line:3", check, detail)]
    decision = rungate.check_runnable(reopened, image.image_id)
    assert not decision.allowed
    assert "signature-invalid:line:3" in decision.reasons


def test_non_canonical_base64_padding_bits_are_a_record_digest_issue(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    lines = ledger.log_path.read_bytes().split(b"\n")
    # the first line whose final base64 quantum is padded has unused bits
    n, line = next((n, line) for n, line in enumerate(lines, 1) if line.endswith(b"="))
    encoded = line.split(b" ")[2]
    last = len(encoded.rstrip(b"=")) - len(encoded) + len(line) - 1
    forged = alphabet[alphabet.index(line[last]) | 1]
    assert forged != line[last]  # canonical encoders leave the unused bits zero
    lines[n - 1] = line[:last] + bytes([forged]) + line[last + 1:]
    assert crypto.decode_text(lines[n - 1].split(b" ")[2].decode("ascii")) == crypto.decode_text(
        encoded.decode("ascii")
    )
    ledger.log_path.write_bytes(b"\n".join(lines))

    reopened = Ledger.open(ledger.root, sync=False)
    issues = [(i.ref, i.check, i.detail) for i in reopened.issues]
    assert issues == [(f"line:{n}", "record-digest", "non-canonical record encoding")]
    decision = rungate.check_runnable(reopened, image.image_id)
    assert not decision.allowed
    assert f"signature-invalid:line:{n}" in decision.reasons


@pytest.mark.parametrize("extra", ["", "a", "ab"])  # each length modulo 3
def test_non_canonical_check_agrees_with_a_full_re_encode(extra):
    # a string sorts last, so many changes near the end still load
    payload = canonical_json(
        {"created_at": "2026-01-02T03:04:05Z", "record": "meta", "schema_version": 1, "~": "text" + extra}
    )
    encoded = base64.b64encode(payload)
    # every one-character change in the last two quanta
    for at in range(len(encoded) - 8, len(encoded)):
        for char in b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=":
            forged = encoded[:at] + bytes([char]) + encoded[at + 1:]
            try:
                decoded = base64.b64decode(forged, validate=True)
            except binascii.Error:
                continue  # a parse issue
            line = f"{crypto.digest(decoded)} meta ".encode("ascii") + forged + b"\n"
            issues: list = []
            records = read_lines([line], 0, "line:", issues)[0]
            flagged = ("record-digest", "non-canonical record encoding") in {
                (i.check, i.detail) for i in issues
            }
            assert flagged == (records != [] and base64.b64encode(decoded) != forged), forged


def test_open_does_each_lines_decoding_once(fig_tree, monkeypatch):
    ledger = fig_tree["ledger"]
    revocation.remove(ledger, fig_tree["leaf_image"].image_id, "fixture")
    calls: Counter[str] = Counter()
    reencoded: list[int] = []
    b2a_base64 = binascii.b2a_base64

    def counted(name, fn):
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    def encoding(data, **kwargs):
        reencoded.append(len(data))
        return b2a_base64(data, **kwargs)

    monkeypatch.setattr(json, "loads", counted("json.loads", json.loads))
    monkeypatch.setattr(binascii, "a2b_base64", counted("a2b_base64", binascii.a2b_base64))
    monkeypatch.setattr(binascii, "b2a_base64", encoding)
    monkeypatch.setattr(crypto, "encode_text", counted("encode_text", crypto.encode_text))
    reopened = Ledger.open(ledger.root, sync=False)
    lines = len(ledger.log_path.read_bytes().splitlines())
    # public key; recipe content and signature; image signature
    fields = len(reopened.entities) + 2 * len(reopened.recipes) + len(reopened.images)
    assert (lines, fields) == (1 + 1 + 3 + 3 + 1, 1 + 6 + 3)
    assert calls["json.loads"] == lines
    assert calls["a2b_base64"] == lines + fields
    # the non-canonical check re-encodes only each payload's final quantum
    assert calls["encode_text"] == 0
    assert len(reencoded) == lines and max(reencoded) <= 3


def test_record_loaders_read_every_field_into_its_own_field():
    # The loaders build records positionally; every field here holds a
    # distinct value, so a reordered dataclass field fails the round trip.
    signature = Signature(algorithm="ed25519", value=b"sig-bytes", signer_id="alice")
    recipe_record = RecipeRecord(
        recipe_hash="1" * 64,
        kind="child",
        content=b"FROM parent\n",
        signature=signature,
        signer_id="bob",
        parent_image_id="20260102T030405Z-" + "2" * 64,
        registered_at=datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc),
    )
    image_record = ImageRecord(
        image_id="20260102T030406Z-" + "1" * 64,
        recipe_hash="3" * 64,
        parent_image_id="20260102T030405Z-" + "2" * 64,
        image_digest="4" * 64,
        step_digests=("5" * 64, "6" * 64),
        signature=signature,
        signer_id="carol",
    )
    assert Signature.from_dict(signature.to_dict()) == signature
    for record in (recipe_record, image_record):
        assert type(record).from_record_dict(record.to_record_dict()) == record


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


def test_refresh_inside_writer_lock_keeps_it(trusted_ledger):
    import fcntl

    ledger, signer, private = trusted_ledger
    other = Ledger.open(ledger.root)
    with ledger.exclusive():
        ledger.refresh()  # must not trade the writer lock for a shared one
        with pytest.raises(BlockingIOError):
            fcntl.flock(other._lockfile(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        recipe.register_root(ledger, ROOT_TEXT, signer, private)
    other.close()


GHOST = "20181001T120000Z-" + "d" * 64
APPEND_BY_OTHER_HANDLE = {
    "ledger.log": lambda handle, key: handle.add_entity("bob", key),
    "audit.log": lambda handle, key: rungate.check_runnable(handle, GHOST),
}


@pytest.mark.parametrize("log", sorted(APPEND_BY_OTHER_HANDLE))
def test_torn_tail_is_cut_by_another_handles_append(trusted_ledger, second_keypair, log):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    rungate.check_runnable(ledger, image.image_id)
    path = ledger.root / log
    intact = path.read_bytes()
    replayed = Ledger.open(ledger.root, sync=False)
    with open(path, "ab") as fh:
        fh.write(b"deadbeef event SGVsbG8")  # a crash tore the final line
    replayed.refresh()
    assert replayed.issues == [] and replayed.read_audit()[1] == []

    APPEND_BY_OTHER_HANDLE[log](Ledger.open(ledger.root, sync=False), second_keypair[0])
    data = path.read_bytes()
    assert data.startswith(intact) and data.endswith(b"\n")
    assert data.count(b"\n") == intact.count(b"\n") + 1
    if log == "ledger.log":
        entities, lines = set(replayed.entities), replayed._line_no
        replayed.refresh()
        assert set(replayed.entities) - entities == {"bob"}
        assert replayed._line_no == lines + 1
        assert replayed.issues == []
    else:
        records, issues = replayed.read_audit()
        assert issues == []
        assert [r.data["image_id"] for r in records] == [image.image_id, GHOST]
    assert replayed.validate_all().ok


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
    _, root_image = register_and_build(ledger, ROOT_TEXT, signer, private)
    child = recipe.register_child(
        ledger, f"FROM trusted:{root_image.image_id}\nRUN echo child\n", signer, private
    )
    builder.build(ledger, child.recipe_hash, MockEngine(seed="0"), signer, private)
    report = ledger.validate_all()
    assert report.failures() == []
    # The structural checks are run on every recipe and image, the root and the child.
    checks = {e.check for e in report.entries}
    for check in ("signer-known", "recipe-known", "parent-known", "kind-parent",
                  "parent-earlier", "parent-mirrors-recipe", "parent-forest"):
        assert check in checks


def _image_chain(n: int) -> SimpleNamespace:
    """Stand-in ledger for ``Ledger._has_cycle``: n images, each built from
    the previous one, in replay order."""
    images: dict[str, SimpleNamespace] = {}
    parent = None
    for i in range(n):
        image_id = f"20260102T030405Z-{i:064x}"
        images[image_id] = SimpleNamespace(image_id=image_id, parent_image_id=parent)
        parent = image_id
    return SimpleNamespace(images=images)


def test_has_cycle_is_linear_on_a_50000_image_chain():
    chain = _image_chain(50_000)
    start = time.perf_counter()
    assert not Ledger._has_cycle(chain)
    chain.images = dict(reversed(chain.images.items()))
    assert not Ledger._has_cycle(chain)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.1f} s"


@pytest.mark.parametrize("forge", ["root-2-cycle", "tail-2-cycle", "tail-self-loop"])
def test_has_cycle_reports_forged_cycles(forge):
    chain = _image_chain(10)
    ids = list(chain.images)
    if forge == "root-2-cycle":  # every chain leads into it
        chain.images[ids[0]].parent_image_id = ids[1]
    else:  # reached only after every other image was proven acyclic
        a, b = (f"20260102T030405Z-{c * 64}" for c in "ab")
        loop_to = b if forge == "tail-2-cycle" else a
        chain.images[a] = SimpleNamespace(image_id=a, parent_image_id=loop_to)
        chain.images[b] = SimpleNamespace(image_id=b, parent_image_id=a)
    assert Ledger._has_cycle(chain)


def test_index_summary_written(tmp_path, keypair):
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger")
    ledger.add_entity("alice", public)
    register_and_build(ledger, ROOT_TEXT, "alice", private)
    summary = json.loads((ledger.root / "index" / "summary.json").read_text())
    assert summary["recipes"]["live"] == 1
    assert summary["images"]["live"] == 1

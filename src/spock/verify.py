"""Record and bundle verification: the one place that decides whether an
entity, recipe or image record, or an archive bundle, is valid.

``record_entries`` runs every per-record check on one record and returns
one :class:`ValidationEntry` per check; ``Ledger.validate_all`` reports
them for every record. ``record_problems`` turns the failing checks of a
recipe or image into admission problems for
``provenance.lineage_problems``, and adds the two predicates only
admission asks for: the record is live, and its signer is trusted now.
``check_write`` is the write rule: ``Ledger.append`` writes a record only
if, once written, replay would flag nothing and ``validate`` would pass;
``_WRITE_ERRORS`` picks the error of the first check that would fail.

A recipe's ``kind`` and ``parent_image_id`` are not covered by its
signature, so the ``kind-parent`` check compares them with what the
signed ``FROM`` line gives, as replay keeps it in ``Ledger.link``.

``read_bundle`` is the one reader of an archive bundle, for ``validate``
and ``revocation.open_archive`` alike; it returns the archived records.
``bundle_checks`` checks a purge event's bundle, for ``validate`` and writes.

Only the Ed25519 result is remembered: ``Ledger.verify`` keeps it per
handle under the exact signed bytes, signature and key, and every other
check, liveness and trust included, runs again on each call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from . import clock, crypto
from .errors import AlreadyRegisteredError, DuplicateEntityError, IntegrityError, NotFoundError, PurgedError
from .errors import RebuildDeniedError, SignatureInvalidError, SpockError, TamperError
from .recipe import signed_link
from .records import (
    ImageId,
    ImageRecord,
    LedgerEvent,
    RecipeRecord,
    STATUS_DISTRUSTED,
    STATUS_LIVE,
    STATUS_TRUSTED,
    TrustedEntity,
    canonical_json,
    load_record,
)

if TYPE_CHECKING:
    from .ledger import Ledger

MANIFEST_NAME = "manifest.json"
_MANIFEST_KEYS = {"bundle_id", "created_at", "reason", "items"}
_ITEM_KEYS = {"type", "id", "digest"}

PURGED = "purged"
MISSING = "missing"
UNTRUSTED_SIGNER = "untrusted-signer"
SIGNATURE_INVALID = "signature-invalid"
UNKNOWN_IMAGE = "unknown-image"
# replay issues that mean the log itself was altered
TAMPER_CHECKS = ("parse", "record-digest", "duplicate")

# the order a record's problems are reported in
_ORDER = (PURGED, MISSING, UNTRUSTED_SIGNER, SIGNATURE_INVALID)
# a failing check not listed here means the record cannot be believed
_CHECK_CODES = {"signer-known": MISSING, "signer-trusted": UNTRUSTED_SIGNER}
# which error refuses a write, by the noun of its ref and the first check it
# fails, else by that check alone (else IntegrityError)
_WRITE_ERRORS = {
    "signature": SignatureInvalidError,
    "content-hash": SignatureInvalidError,
    "purged-hash": PurgedError,
    "single-live-image": RebuildDeniedError,
    ("entity", "duplicate"): DuplicateEntityError,
    ("recipe", "duplicate"): AlreadyRegisteredError,
}


@dataclass
class ValidationEntry:
    ref: str
    check: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    entries: list[ValidationEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[ValidationEntry]:
        return [e for e in self.entries if not e.ok]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": len(self.entries),
            "failures": len(self.failures()),
            "entries": [
                {"ref": e.ref, "check": e.check, "ok": e.ok, "detail": e.detail}
                for e in self.entries
            ],
        }


@dataclass(frozen=True)
class Problem:
    """Why a node is not admissible: a code and the ref it names.
    ``str()`` gives the reason string ``check`` prints."""

    code: str
    ref: str

    def __str__(self) -> str:
        return f"{self.code}:{self.ref}"


def record_ref(record) -> str:
    if isinstance(record, TrustedEntity):
        return f"entity:{record.entity_id}"
    if isinstance(record, RecipeRecord):
        return f"recipe:{record.recipe_hash}"
    if isinstance(record, ImageRecord):
        return f"image:{record.image_id}"
    if isinstance(record, LedgerEvent):
        return f"event:{record.event}"
    return "meta"


def record_entries(ledger: Ledger, record, flagged: set[str]) -> list[ValidationEntry]:
    """Every per-record check on an entity, recipe or image record, in the
    order ``validate`` reports them. A record whose ref is in ``flagged``
    already failed on replay and gets no passing ``record-digest`` entry."""
    ref = record_ref(record)
    checks = _CHECKS[type(record)](ledger, record, ref not in flagged)
    return [ValidationEntry(ref, check, ok, detail) for check, ok, detail in checks]


def record_problems(ledger: Ledger, record: RecipeRecord | ImageRecord) -> list[Problem]:
    """Why one recipe or image record is not admissible now: its failing
    checks, plus not live or signed by an entity not trusted now. At most
    one problem per code."""
    # no record-digest entry: it only ever passes here, replay reports failures
    checks = _CHECKS[type(record)](ledger, record, False)
    codes = {_CHECK_CODES.get(check, SIGNATURE_INVALID) for check, ok, _ in checks if not ok}
    if record.status != STATUS_LIVE:
        codes.add(PURGED)
    signer = ledger.entities.get(record.signer_id)
    if signer is not None and signer.status != STATUS_TRUSTED:
        codes.add(UNTRUSTED_SIGNER)
    if not codes:
        return []
    refs = {MISSING: f"entity:{record.signer_id}", UNTRUSTED_SIGNER: record.signer_id}
    ref = record_ref(record)
    return [Problem(code, refs.get(code, ref)) for code in _ORDER if code in codes]


def check_write(ledger: Ledger, record=None) -> None:
    """The write rule: raise TamperError when replay found ``ledger.log``
    altered, and otherwise unless ``record``, appended to ``ledger``, would
    leave nothing for replay to flag and nothing for ``validate`` to fail."""
    altered = [i.ref for i in ledger.issues if i.check in TAMPER_CHECKS]
    if altered:
        raise TamperError(f"ledger.log was altered ({altered[0]}); restore it before writing")
    if record is None:
        return
    ref = record_ref(record)
    own = _CHECKS.get(type(record))
    for check, ok, detail in chain(_ledger_checks(ledger, record), own(ledger, record, False) if own else ()):
        if not ok:
            error = _WRITE_ERRORS.get((ref.split(":")[0], check)) or _WRITE_ERRORS.get(check, IntegrityError)
            raise error(f"{ref} fails {check}" + (f": {detail}" if detail else ""))


def _ledger_checks(ledger: Ledger, record):
    """The checks across the ledger that a new record could fail. Its id is
    new (a purged recipe hash fails ``purged-hash``, the bar on revoked
    content), its status is the one replay will give it, and a new image's
    recipe has no live image. A purge event names only records the ledger
    holds, a distrust event purges every live record its entity signed, and
    the event's bundle passes ``bundle_checks``."""
    if not isinstance(record, LedgerEvent):
        held = ledger.held(record)
        if isinstance(held, RecipeRecord) and held.status != STATUS_LIVE:
            yield "purged-hash", False, "recipe content was revoked and is barred forever"
        else:
            yield "duplicate", held is None, "id already recorded"
        fresh = STATUS_TRUSTED if isinstance(record, TrustedEntity) else STATUS_LIVE
        yield "status", getattr(record, "status", fresh) == fresh, f"replay gives it status {fresh}"
        if isinstance(record, ImageRecord):
            live = ledger.live_image_for(record.recipe_hash)
            yield "single-live-image", live is None, "" if live is None else f"live image {live.image_id}"
    elif record.event in ("remove", "distrust"):
        purged = _purged(record)
        tables = {"recipe": ledger.recipes, "image": ledger.images}
        for noun, node_id in sorted(purged):
            yield "referential", node_id in tables[noun], f"purge of unknown {noun} {node_id}"
        if record.event == "distrust":
            live = {"status": STATUS_LIVE, "signer": record.data.get("entity_id")}
            for signed in (*ledger.list_recipes(**live), *ledger.list_images(**live)):
                noun, node_id = record_ref(signed).split(":", 1)
                yield "signer-trusted", (noun, node_id) in purged, f"leaves {noun} {node_id} live"
        yield from bundle_checks(ledger.archive_root, record)


def _purged(event: LedgerEvent) -> set[tuple[str, str]]:
    """The (type, id) pairs a purge event lists."""
    return {(noun, i) for noun in ("recipe", "image") for i in event.data.get(f"purged_{noun}s", [])}


def bundle_checks(archive_root: Path, event: LedgerEvent):
    """``validate``'s checks of a purge event's bundle: it is present, reads
    back intact, and lists exactly what the event purges."""
    bundle_id = event.data.get("bundle_id", "")
    bundle_ok, detail = True, ""
    try:
        manifest = read_bundle(archive_root, bundle_id)[0]
        if {(item["type"], item["id"]) for item in manifest["items"]} != _purged(event):
            raise TamperError(f"bundle items differ from the event's purge lists: {bundle_id}")
    except NotFoundError:
        yield "bundle-present", False, f"missing bundle {bundle_id}"
        return
    except (TamperError, OSError) as exc:
        bundle_ok, detail = False, str(exc)
    yield "bundle-present", True, ""
    yield "bundle-manifest", bundle_ok, detail


def bundle_item_name(item_type: str, item_id: str) -> str:
    return f"{item_type}-{item_id}.json"


def read_bundle(archive_root: Path, bundle_id: str) -> tuple[dict, list[RecipeRecord | ImageRecord]]:
    """A bundle's manifest and its archived records, in manifest order.
    Raises NotFoundError when the manifest is absent, and TamperError when
    it is unreadable, malformed or does not digest to the id, or when an
    item is missing, does not digest to its entry, or is not the record
    of the type and id its entry names."""
    bundle_dir = archive_root / bundle_id
    path = bundle_dir / MANIFEST_NAME
    if not path.is_file():
        raise NotFoundError(f"unknown archive bundle: {bundle_id}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise TamperError(f"bundle manifest unreadable: {exc}") from exc
    if not _well_formed(manifest):
        raise TamperError(f"bundle manifest malformed: {bundle_id}")
    body = {k: v for k, v in manifest.items() if k != "bundle_id"}
    if crypto.digest(canonical_json(body)) != bundle_id or manifest["bundle_id"] != bundle_id:
        raise TamperError(f"bundle manifest does not match its id: {bundle_id}")
    records = []
    for item in manifest["items"]:
        path = bundle_dir / bundle_item_name(item["type"], item["id"])
        if not path.is_file():
            raise TamperError(f"bundle item missing: {path.name}")
        payload = path.read_bytes()
        if crypto.digest(payload) != item["digest"]:
            raise TamperError(f"bundle item digest mismatch: {path.name}")
        try:
            record = load_record(item["type"], json.loads(payload))
        except Exception as exc:  # any decode failure means the item was forged
            raise TamperError(f"bundle item is not a record: {path.name}") from exc
        if record_ref(record) != f"{item['type']}:{item['id']}":
            raise TamperError(f"bundle item holds another record: {path.name}")
        records.append(record)
    return manifest, records


def _well_formed(manifest) -> bool:
    """Whether a manifest has exactly the keys and item entries that
    ``_write_bundle`` writes, so nothing that reads it can fail on them."""
    if not isinstance(manifest, dict) or set(manifest) != _MANIFEST_KEYS:
        return False
    try:
        clock.parse_iso(manifest["created_at"])
    except (TypeError, ValueError):
        return False
    items = manifest["items"]
    return isinstance(manifest["reason"], str) and isinstance(items, list) and all(
        isinstance(item, dict) and set(item) == _ITEM_KEYS and item["type"] in ("recipe", "image")
        and isinstance(item["id"], str) and "/" not in item["id"]
        for item in items
    )


def _entity_checks(ledger: Ledger, entity: TrustedEntity, digest_ok: bool):
    key_ok = len(entity.public_key.raw) == 32
    yield "key-material", key_ok, "" if key_ok else "bad key length"
    if digest_ok:
        yield "record-digest", True, ""


def _recipe_checks(ledger: Ledger, rec: RecipeRecord, digest_ok: bool):
    if digest_ok:
        yield "record-digest", True, ""
    content_ok = crypto.digest(rec.content) == rec.recipe_hash
    yield "content-hash", content_ok, "" if content_ok else "recipe hash does not match content"
    # replay derived the link of a recipe it applied; one not yet written gives it now
    applied = ledger.recipes.get(rec.recipe_hash) is rec
    link = ledger.link(rec.recipe_hash) if applied else signed_link(rec.content)
    kind_ok = link == (rec.kind, rec.parent_image_id)
    yield "kind-parent", kind_ok, "" if kind_ok else "kind or parent differs from the signed FROM line"
    yield from _signer_checks(ledger, rec, rec.content, "recipe")
    if rec.parent_image_id is not None:
        parent_ok = rec.parent_image_id in ledger.images
        yield "parent-known", parent_ok, "" if parent_ok else f"unknown parent image {rec.parent_image_id}"


def _image_checks(ledger: Ledger, img: ImageRecord, digest_ok: bool):
    if digest_ok:
        yield "record-digest", True, ""
    image_id = _parse_id(img)
    yield "id-format", image_id is not None and image_id.recipe_hash == img.recipe_hash, ""
    recipe = ledger.recipes.get(img.recipe_hash)
    if recipe is None:
        yield "recipe-known", False, f"unknown recipe {img.recipe_hash}"
    else:
        yield "recipe-known", True, ""
        yield "parent-mirrors-recipe", img.parent_image_id == recipe.parent_image_id, ""
    yield from _signer_checks(ledger, img, img.signed_bytes(), "image")
    if img.parent_image_id is not None:
        parent = ledger.images.get(img.parent_image_id)
        if parent is None:
            yield "parent-known", False, ""
        else:
            parent_id = _parse_id(parent)
            order_ok = (
                image_id is not None
                and parent_id is not None
                and image_id.built_at > parent_id.built_at
            )
            yield "parent-earlier", order_ok, "" if order_ok else "parent image is not strictly earlier"


def _parse_id(img: ImageRecord) -> ImageId | None:
    try:
        return ImageId.parse(img.image_id)
    except SpockError:
        return None


def _signer_checks(ledger: Ledger, record: RecipeRecord | ImageRecord, signed: bytes, noun: str):
    signer = ledger.entities.get(record.signer_id)
    if signer is None:
        yield "signer-known", False, f"unknown signer {record.signer_id}"
        return
    yield "signer-known", True, ""
    sig_ok = record.signature.signer_id == record.signer_id and ledger.verify(
        signed, record.signature, signer.public_key
    )
    yield "signature", sig_ok, "" if sig_ok else "signature does not verify"
    if record.status == STATUS_LIVE and signer.status == STATUS_DISTRUSTED:
        yield "signer-trusted", False, f"live {noun} signed by distrusted entity {record.signer_id}"


_CHECKS = {TrustedEntity: _entity_checks, RecipeRecord: _recipe_checks, ImageRecord: _image_checks}

"""Persistent single source of truth for entities, recipes, images, and events.

Layout of a ledger directory:

    ledger.log   append-only record log (authoritative)
    audit.log    append-only admission decisions (never replayed)
    archive/     forensic bundles written by revocations
    index/       rebuildable summary, never read back (not authoritative)
    .lock        advisory lock file

Each log line is ``<record-digest> <record-type> <base64(canonical-json)>``.
The digest is SHA-256 over the canonical JSON bytes, so every line is
self-verifying. Records are immutable once written; status changes are
new appended event records, and the in-memory state is a replay of the
whole log.

Both logs are written by one appender, ``append_line``: it takes an
exclusive flock on the log file itself, cuts a torn tail (a crash can only
tear the final line) back to the last newline, writes the whole line with
``O_APPEND`` and fsyncs. Both are read by one reader, ``read_lines``, which
parses complete lines only, so a torn tail is never part of either log.

``ledger.log`` writes also hold an exclusive flock on ``.lock`` for the
whole mutating operation, so there is one writer at a time; readers take
a shared flock on ``.lock`` while they catch up on newly appended lines.
``audit.log`` holds admission decisions. It is not trust input: ``open``
never replays it, its appends do not take ``.lock``, and only ``validate``
reads it.
"""

from __future__ import annotations

import binascii
import fcntl
import io
import json
import os
from collections import Counter
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

from . import clock, crypto
from .crypto import PublicKey, Signature
from .errors import AmbiguousNodeError, IntegrityError, LedgerExistsError, NotFoundError, SpockError
from .recipe import signed_link
from .records import (
    ImageId,
    ImageRecord,
    LedgerEvent,
    MetaRecord,
    RecipeRecord,
    SCHEMA_VERSION,
    STATUS_DISTRUSTED,
    STATUS_LIVE,
    STATUS_PURGED,
    TrustedEntity,
    canonical_json,
    load_record,
)
from .verify import ValidationEntry, ValidationReport, bundle_checks, check_write, record_entries, record_ref

LOG_NAME = "ledger.log"
AUDIT_NAME = "audit.log"
ARCHIVE_DIR = "archive"
INDEX_DIR = "index"
LOCK_NAME = ".lock"
# Per log path: the identity of the file as this process last parsed it or
# appended to it, and the issues it then had. Only read_audit fills it:
# validate parses audit.log again only when its identity changed, and
# append_line carries the issues over its own well-formed line, so a
# process that validates after every check does not re-parse the whole
# history each time.
_verified_audit: dict[Path, tuple[tuple, tuple]] = {}


def _file_identity(st: os.stat_result) -> tuple:
    # an in-place rewrite that keeps the size still moves ctime, which
    # cannot be set back (with coarse timestamps, only from the next tick)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def format_log_line(rec_digest: str, rtype: str, payload: bytes) -> bytes:
    return f"{rec_digest} {rtype} {crypto.encode_text(payload)}\n".encode("ascii")


def append_line(path: Path, record, sync: bool) -> tuple[str, int]:
    """Append one record to the log at ``path``: (record digest, bytes
    written). Appends are serialized by an exclusive flock on the file
    itself, under which a torn tail left by a crashed writer is cut back
    to the last newline before the whole line is written."""
    data = record.to_record_dict()
    payload = canonical_json(data)
    rec_digest = crypto.digest(payload)
    line = format_log_line(rec_digest, data["record"], payload)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        before = os.fstat(fd)
        size = before.st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            os.ftruncate(fd, os.pread(fd, size, 0).rfind(b"\n") + 1)
        rest = memoryview(line)
        while rest:  # a large remove event may take more than one write
            rest = rest[os.write(fd, rest):]
        if sync:
            os.fsync(fd)
        seen = _verified_audit.get(path)
        if seen is not None and seen[0] == _file_identity(before):
            _verified_audit[path] = (_file_identity(os.fstat(fd)), seen[1])
    finally:
        os.close(fd)  # releases the flock
    return rec_digest, len(line)


def read_lines(
    lines: Iterable[bytes], line_no: int, prefix: str, issues: list[ValidationEntry]
) -> tuple[list, int, int]:
    """Parse the complete lines of ``lines`` (each with its newline), numbered
    from ``line_no + 1``: (records that parse, bytes consumed, lines consumed).
    An incomplete final line is a crash artifact, not part of the log. Each
    problem is added to ``issues`` as a failing entry with ref ``<prefix><n>``."""
    records = []
    consumed = 0
    n = line_no
    for line in lines:
        if not line.endswith(b"\n"):
            break
        consumed += len(line)
        n += 1
        line = line[:-1]
        try:
            if not line.isascii():
                line.decode("ascii")  # raises, naming the first non-ASCII byte
            stored_digest, rtype, encoded = line.split(b" ")
            rtype = rtype.decode("ascii")
            try:
                # crypto.decode_text's decode and error text, on the bytes read
                payload = binascii.a2b_base64(encoded, strict_mode=True)
            except binascii.Error as exc:
                raise SpockError(f"invalid base64 text: {exc}") from exc
            fields = json.loads(payload)
            if fields.get("record") != rtype:
                raise SpockError("record type token mismatch")
            record = load_record(rtype, fields)
        except Exception as exc:
            issues.append(ValidationEntry(f"{prefix}{n}", "parse", False, f"corrupt log line: {exc}"))
            continue
        records.append(record)
        # The strict decode admitted whole quanta with correct padding, so
        # the text can differ from the encoding we would have written only
        # in the unused bits of its final quantum: re-encode just that.
        if binascii.b2a_base64(payload[-(len(payload) % 3 or 3):], newline=False) != encoded[-4:]:
            issues.append(
                ValidationEntry(f"{prefix}{n}", "record-digest", False, "non-canonical record encoding")
            )
        if crypto.digest(payload).encode("ascii") != stored_digest:
            detail = f"stored digest does not match record bytes ({record_ref(record)})"
            issues.append(ValidationEntry(f"{prefix}{n}", "record-digest", False, detail))
    return records, consumed, n - line_no


class Ledger:
    """Handle on a ledger directory. Use :meth:`init` or :meth:`open`."""

    def __init__(self, root: Path, sync: bool = True):
        self.root = Path(root)
        self.sync = sync
        self._lock_fd: int | None = None
        self._lock_depth = 0
        self._reset_state()

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    def init(cls, path: str | Path, sync: bool = True) -> "Ledger":
        root = Path(path)
        if root.exists() and any(root.iterdir()):
            raise LedgerExistsError(f"path exists and is not empty: {root}")
        root.mkdir(parents=True, exist_ok=True)
        (root / ARCHIVE_DIR).mkdir()
        (root / INDEX_DIR).mkdir()
        (root / LOG_NAME).touch()
        (root / LOCK_NAME).touch()
        ledger = cls(root, sync=sync)
        meta = MetaRecord(schema_version=SCHEMA_VERSION, created_at=clock.now_utc())
        with ledger.exclusive():
            ledger.append(meta)
        return ledger

    @classmethod
    def open(cls, path: str | Path, sync: bool = True) -> "Ledger":
        root = Path(path)
        if not (root / LOG_NAME).is_file():
            raise NotFoundError(f"no ledger at {root}")
        ledger = cls(root, sync=sync)
        ledger.refresh()
        if ledger.meta is None:
            # tolerate a tampered schema line (validation will flag it),
            # but refuse files that never were ledgers
            if not ledger.issues:
                raise IntegrityError(f"ledger at {root} has no schema record")
        elif ledger.meta.schema_version != SCHEMA_VERSION:
            raise IntegrityError(
                f"unsupported schema version {ledger.meta.schema_version}"
            )
        return ledger

    def close(self) -> None:
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None

    @property
    def log_path(self) -> Path:
        return self.root / LOG_NAME

    @property
    def audit_path(self) -> Path:
        return self.root / AUDIT_NAME

    @property
    def archive_root(self) -> Path:
        return self.root / ARCHIVE_DIR

    # ------------------------------------------------------------------
    # locking and replay

    def _lockfile(self) -> int:
        if self._lock_fd is None:
            self._lock_fd = os.open(self.root / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
        return self._lock_fd

    @contextmanager
    def exclusive(self):
        """Writer lock for the duration of a mutating operation."""
        fd = self._lockfile()
        if self._lock_depth == 0:
            fcntl.flock(fd, fcntl.LOCK_EX)
        self._lock_depth += 1
        try:
            self._catch_up()
            yield self
        finally:
            self._lock_depth -= 1
            if self._lock_depth == 0:
                fcntl.flock(fd, fcntl.LOCK_UN)

    def refresh(self) -> None:
        """Catch up on records appended by other processes."""
        if self._lock_depth:
            # the writer lock is held: a shared flock here would downgrade it
            self._catch_up()
            return
        fd = self._lockfile()
        fcntl.flock(fd, fcntl.LOCK_SH)
        try:
            self._catch_up()
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def _catch_up(self) -> None:
        size = self.log_path.stat().st_size
        if size < self._offset:
            # log shrank (external truncation): replay from scratch
            self._reset_state()
        if size == self._offset:
            return
        with open(self.log_path, "rb") as fh:
            fh.seek(self._offset)
            # parse as it reads: holding the whole tail and then its split
            # lines would touch twice its size in fresh memory
            records, consumed, lines = read_lines(fh, self._line_no, "line:", self.issues)
        self._offset += consumed
        self._line_no += lines
        for record in records:
            self._apply(record)

    def _reset_state(self) -> None:
        """Declare and clear everything replay builds."""
        self.entities: dict[str, TrustedEntity] = {}
        self.recipes: dict[str, RecipeRecord] = {}
        self.images: dict[str, ImageRecord] = {}
        self.events: list[LedgerEvent] = []
        self.meta: MetaRecord | None = None
        self.issues: list[ValidationEntry] = []
        self._images_by_recipe: dict[str, list[str]] = {}
        self._links: dict[str, tuple[str, str | None] | None] = {}
        self._children_by_image: dict[str, list[str]] = {}
        self._verified: dict[tuple[bytes, Signature, PublicKey], bool] = {}
        self._offset = 0
        self._line_no = 0

    def verify(self, content: bytes, sig: Signature, key: PublicKey) -> bool:
        """``crypto.verify``, remembered for this handle under its exact
        inputs: the signed bytes, the signature and the key."""
        inputs = (content, sig, key)
        ok = self._verified.get(inputs)
        if ok is None:
            ok = self._verified[inputs] = crypto.verify(content, sig, key)
        return ok

    def _flag(self, ref: str, check: str, detail: str) -> None:
        self.issues.append(ValidationEntry(ref, check, False, detail))

    def held(self, record):
        """The record replay applied under ``record``'s id (the schema
        record, entity id, recipe hash or image id), if any."""
        if isinstance(record, MetaRecord):
            return self.meta
        if isinstance(record, TrustedEntity):
            return self.entities.get(record.entity_id)
        if isinstance(record, RecipeRecord):
            return self.recipes.get(record.recipe_hash)
        return self.images.get(record.image_id) if isinstance(record, ImageRecord) else None

    def _apply(self, record) -> None:
        if isinstance(record, LedgerEvent):
            self.events.append(record)
            if record.event in ("remove", "distrust"):
                self._apply_purge_event(record)
        elif self.held(record) is not None:
            self._flag(record_ref(record), "duplicate", "id already recorded")
        elif isinstance(record, MetaRecord):
            self.meta = record
        elif isinstance(record, TrustedEntity):
            self.entities[record.entity_id] = record
        elif isinstance(record, RecipeRecord):
            self.recipes[record.recipe_hash] = record
            link = self._links[record.recipe_hash] = signed_link(record.content)
            if link is not None and link[1] is not None:
                self._children_by_image.setdefault(link[1], []).append(record.recipe_hash)
        elif isinstance(record, ImageRecord):
            self.images[record.image_id] = record
            self._images_by_recipe.setdefault(record.recipe_hash, []).append(record.image_id)

    def _apply_purge_event(self, event: LedgerEvent) -> None:
        for noun, table in (("recipe", self.recipes), ("image", self.images)):
            for node_id in event.data.get(f"purged_{noun}s", []):
                if node_id in table:
                    table[node_id].status = STATUS_PURGED
                else:
                    self._flag(f"event:{event.event}", "referential", f"purge of unknown {noun} {node_id}")
        if event.event == "distrust":
            entity = self.entities.get(event.data.get("entity_id", ""))
            if entity is not None:
                entity.status = STATUS_DISTRUSTED

    # ------------------------------------------------------------------
    # appending

    def append(self, record) -> str:
        """Append one record under the held writer lock and apply it, if
        ``verify.check_write`` admits it: the one write rule."""
        if not self._lock_depth:
            raise SpockError("append requires the writer lock")
        check_write(self, record)
        rec_digest, length = append_line(self.log_path, record, self.sync)
        self._offset += length
        self._line_no += 1
        self._apply(record)
        self._write_index_summary()
        return rec_digest

    def audit(self, record) -> str:
        """Append one record to ``audit.log``: no ``.lock``, no replay, no
        index rewrite."""
        return append_line(self.audit_path, record, self.sync)[0]

    def read_audit(self) -> tuple[list, list[ValidationEntry]]:
        """Parse ``audit.log`` with the replay reader: (records, issues),
        each issue's ref ``audit:line:<n>``."""
        try:
            with open(self.audit_path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                identity = _file_identity(os.fstat(fh.fileno()))
                data = fh.read()
        except FileNotFoundError:
            return [], []
        issues: list[ValidationEntry] = []
        records = read_lines(io.BytesIO(data), 0, "audit:line:", issues)[0]
        _verified_audit[self.audit_path] = (identity, tuple(issues))
        return records, issues

    def _audit_issues(self) -> tuple[ValidationEntry, ...]:
        try:
            identity = _file_identity(self.audit_path.stat())
        except FileNotFoundError:
            return ()
        seen = _verified_audit.get(self.audit_path)
        if seen is None or seen[0] != identity:
            return tuple(self.read_audit()[1])
        return seen[1]

    def _write_index_summary(self) -> None:
        # Best-effort rebuildable cache; never read back as authority,
        # and skipped entirely in no-sync (throwaway) mode.
        if not self.sync:
            return
        summary = {
            "log_lines": self._line_no,
            "entities": len(self.entities),
            "recipes": {
                "live": sum(1 for r in self.recipes.values() if r.status == STATUS_LIVE),
                "purged": sum(1 for r in self.recipes.values() if r.status == STATUS_PURGED),
            },
            "images": {
                "live": sum(1 for i in self.images.values() if i.status == STATUS_LIVE),
                "purged": sum(1 for i in self.images.values() if i.status == STATUS_PURGED),
            },
            "archives": len({b for e in self.events if e.event in ("remove", "distrust")
                             and (b := e.data.get("bundle_id"))}),
        }
        try:
            (self.root / INDEX_DIR / "summary.json").write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
        except OSError:
            pass

    # ------------------------------------------------------------------
    # spec operations

    def add_entity(self, entity_id: str, public_key: PublicKey) -> TrustedEntity:
        if not entity_id or " " in entity_id or "/" in entity_id:
            raise SpockError(f"invalid entity id: {entity_id!r}")
        entity = TrustedEntity(entity_id=entity_id, public_key=public_key, added_at=clock.now_utc())
        with self.exclusive():
            self.append(entity)
        return entity

    # ------------------------------------------------------------------
    # queries

    def get_entity(self, entity_id: str) -> TrustedEntity:
        entity = self.entities.get(entity_id)
        if entity is None:
            raise NotFoundError(f"unknown entity: {entity_id}")
        return entity

    def get_recipe(self, recipe_hash: str) -> RecipeRecord:
        rec = self.recipes.get(recipe_hash)
        if rec is None:
            raise NotFoundError(f"unknown recipe: {recipe_hash}")
        return rec

    def get_image(self, image_id: str) -> ImageRecord:
        img = self.images.get(image_id)
        if img is None:
            raise NotFoundError(f"unknown image: {image_id}")
        return img

    def resolve(self, token: str) -> tuple[str, object]:
        """Resolve a recipe hash, image id, or unique prefix of either.

        Exact matches win; otherwise recipe-hash prefixes are tried before
        image-id prefixes, so the short labels printed by lineage and tree
        output always resolve.
        """
        tables = (("recipe", self.recipes), ("image", self.images))
        for noun, table in tables:
            if token in table:
                return noun, table[token]
        for noun, table in tables:
            matches = [key for key in table if key.startswith(token)]
            if len(matches) == 1:
                return noun, table[matches[0]]
            if matches:
                raise AmbiguousNodeError(f"ambiguous node {token!r}: matches {len(matches)} {noun}s")
        raise NotFoundError(f"unknown node: {token}")

    def list_entities(self) -> list[TrustedEntity]:
        return sorted(self.entities.values(), key=lambda e: e.entity_id)

    def list_recipes(
        self,
        kind: str | None = None,
        status: str | None = None,
        signer: str | None = None,
    ) -> list[RecipeRecord]:
        out = []
        for rec in self.recipes.values():
            if kind is not None and rec.kind != kind:
                continue
            if status is not None and rec.status != status:
                continue
            if signer is not None and rec.signer_id != signer:
                continue
            out.append(rec)
        return out

    def list_images(
        self, status: str | None = None, signer: str | None = None
    ) -> list[ImageRecord]:
        out = []
        for img in self.images.values():
            if status is not None and img.status != status:
                continue
            if signer is not None and img.signer_id != signer:
                continue
            out.append(img)
        return out

    def images_of(self, recipe_hash: str) -> list[ImageRecord]:
        ids = self._images_by_recipe.get(recipe_hash, [])
        return [self.images[i] for i in ids]

    def live_image_for(self, recipe_hash: str) -> ImageRecord | None:
        for img in self.images_of(recipe_hash):
            if img.status == STATUS_LIVE:
                return img
        return None

    def link(self, recipe_hash: str) -> tuple[str, str | None] | None:
        """(kind, parent image id) that a recipe's signed FROM line gives,
        None when its text does not decode or parse."""
        return self._links.get(recipe_hash)

    def parent_of(self, recipe_hash: str) -> str | None:
        """The image a recipe extends, as its signed FROM line names it;
        None for a root or a recipe whose text does not parse."""
        link = self._links.get(recipe_hash)
        return None if link is None else link[1]

    def child_recipes_of_image(self, image_id: str) -> list[RecipeRecord]:
        hashes = self._children_by_image.get(image_id, [])
        recs = [self.recipes[h] for h in hashes]
        recs.sort(key=lambda r: (r.registered_at, r.recipe_hash))
        return recs

    def allocate_image_id(self, recipe_hash: str, parent: ImageRecord | None) -> ImageId:
        """Pick a build timestamp that keeps image ids unique and children
        strictly later than their parents, bumping by whole seconds when
        the wall clock is not enough."""
        t = clock.now_utc()
        if parent is not None:
            earliest = parent.built_at + clock.SECOND
            if t < earliest:
                t = earliest
        while ImageId(t, recipe_hash).render() in self.images:
            t = t + clock.SECOND
        return ImageId(built_at=t, recipe_hash=recipe_hash)

    # ------------------------------------------------------------------
    # validation

    def validate_all(self) -> ValidationReport:
        report = ValidationReport([*self.issues, *self._audit_issues()])
        add = report.entries.append
        flagged = {i.ref for i in self.issues}
        for record in (*self.entities.values(), *self.recipes.values(), *self.images.values()):
            report.entries.extend(record_entries(self, record, flagged))

        live_count = Counter(
            img.recipe_hash for img in self.images.values() if img.status == STATUS_LIVE
        )
        for recipe_hash, n in live_count.items():
            if n > 1:
                add(
                    ValidationEntry(
                        "ledger", "single-live-image", False,
                        f"{n} live images for recipe {recipe_hash}",
                    )
                )

        for i, event in enumerate(self.events):
            if event.event in ("remove", "distrust"):
                ref = f"event:{event.event}:{i}"
                report.entries.extend(ValidationEntry(ref, *c) for c in bundle_checks(self.archive_root, event))

        add(ValidationEntry("ledger", "parent-forest", not self._has_cycle()))
        return report

    def _has_cycle(self) -> bool:
        # Parent links point at earlier builds, so a cycle can only come
        # from a hand-crafted log; walk each chain defensively. A walk
        # stops at an image an earlier walk proved acyclic, so each image
        # is walked once.
        acyclic: set[str] = set()
        for img in self.images.values():
            seen = set()
            cur: ImageRecord | None = img
            while cur is not None and cur.image_id not in acyclic:
                if cur.image_id in seen:
                    return True
                seen.add(cur.image_id)
                cur = self.images.get(cur.parent_image_id) if cur.parent_image_id else None
            acyclic |= seen
        return False

"""Ledger record types and their canonical byte form.

Every record is serialized as canonical JSON (sorted keys, compact
separators, ASCII only). Those exact bytes are what the record's digest
is computed over and what gets appended to the log, so a record can be
re-verified byte-for-byte forever after.

Mutable status ("live" / "purged", "trusted" / "distrusted") is *not*
part of the canonical bytes: status changes are separate appended events
and the in-memory status is derived by replaying them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any

from . import clock, crypto
from .crypto import PublicKey, Signature
from .errors import SpockError

SCHEMA_VERSION = 1

STATUS_LIVE = "live"
STATUS_PURGED = "purged"
STATUS_TRUSTED = "trusted"
STATUS_DISTRUSTED = "distrusted"

KIND_ROOT = "root"
KIND_CHILD = "child"


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode(
        "ascii"
    )


@dataclass(frozen=True)
class ImageId:
    """Unique image name: UTC build time plus the recipe's content hash."""

    built_at: datetime
    recipe_hash: str

    def render(self) -> str:
        return f"{clock.iso_basic(self.built_at)}-{self.recipe_hash}"

    @classmethod
    def parse(cls, text: str) -> "ImageId":
        stamp, sep, recipe_hash = text.partition("-")
        if not sep or not crypto.is_digest(recipe_hash):
            raise SpockError(f"malformed image id: {text!r}")
        try:
            built_at = clock.parse_iso_basic(stamp)
        except ValueError as exc:
            raise SpockError(f"malformed image id timestamp: {text!r}") from exc
        return cls(built_at=built_at, recipe_hash=recipe_hash)


@dataclass
class TrustedEntity:
    entity_id: str
    public_key: PublicKey
    added_at: datetime
    status: str = STATUS_TRUSTED

    def to_record_dict(self) -> dict:
        return {
            "record": "entity",
            "entity_id": self.entity_id,
            "algorithm": self.public_key.algorithm,
            "public_key": self.public_key.to_text(),
            "added_at": clock.iso(self.added_at),
        }

    @classmethod
    def from_record_dict(cls, data: dict) -> "TrustedEntity":
        return cls(
            entity_id=data["entity_id"],
            public_key=PublicKey.from_text(data["public_key"], data["algorithm"]),
            added_at=clock.parse_iso(data["added_at"]),
        )


@dataclass
class RecipeRecord:
    recipe_hash: str
    kind: str
    content: bytes
    signature: Signature
    signer_id: str
    parent_image_id: str | None
    registered_at: datetime
    status: str = STATUS_LIVE

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")

    def to_record_dict(self) -> dict:
        return {
            "record": "recipe",
            "recipe_hash": self.recipe_hash,
            "kind": self.kind,
            "content": crypto.encode_text(self.content),
            "signature": self.signature.to_dict(),
            "signer_id": self.signer_id,
            "parent_image_id": self.parent_image_id,
            "registered_at": clock.iso(self.registered_at),
        }

    @classmethod
    def from_record_dict(cls, data: dict) -> "RecipeRecord":
        # positional, in field order, as replay builds one per recipe line; a
        # test round-trips every field, so a reordered field fails it
        return cls(
            data["recipe_hash"],
            data["kind"],
            crypto.decode_text(data["content"]),
            Signature.from_dict(data["signature"]),
            data["signer_id"],
            data["parent_image_id"],
            clock.parse_iso(data["registered_at"]),
        )


@dataclass
class ImageRecord:
    image_id: str
    recipe_hash: str
    parent_image_id: str | None
    image_digest: str
    step_digests: tuple[str, ...]
    signature: Signature
    signer_id: str
    status: str = STATUS_LIVE

    @property
    def built_at(self) -> datetime:
        return ImageId.parse(self.image_id).built_at

    def signed_bytes(self) -> bytes:
        """The canonical text an image signature covers.

        Only the identifying fields are signed; step digests and status
        are protected by the record digest instead.
        """
        return canonical_json(
            {
                "image_digest": self.image_digest,
                "image_id": self.image_id,
                "parent_image_id": self.parent_image_id,
                "recipe_hash": self.recipe_hash,
            }
        )

    def to_record_dict(self) -> dict:
        return {
            "record": "image",
            "image_id": self.image_id,
            "recipe_hash": self.recipe_hash,
            "parent_image_id": self.parent_image_id,
            "image_digest": self.image_digest,
            "step_digests": list(self.step_digests),
            "signature": self.signature.to_dict(),
            "signer_id": self.signer_id,
        }

    @classmethod
    def from_record_dict(cls, data: dict) -> "ImageRecord":
        # positional, in field order, as replay builds one per image line; a
        # test round-trips every field, so a reordered field fails it
        return cls(
            data["image_id"],
            data["recipe_hash"],
            data["parent_image_id"],
            data["image_digest"],
            tuple(data["step_digests"]),
            Signature.from_dict(data["signature"]),
            data["signer_id"],
        )


@dataclass
class LedgerEvent:
    """Appended status transition or audit entry.

    ``event`` is one of: remove, distrust, diff_report, admission.
    ``data`` keys per event kind are documented in the README.
    """

    event: str
    at: datetime
    data: dict = field(default_factory=dict)

    def to_record_dict(self) -> dict:
        out = {"record": "event", "event": self.event, "at": clock.iso(self.at)}
        out.update(self.data)
        return out

    @classmethod
    def from_record_dict(cls, data: dict) -> "LedgerEvent":
        payload = {k: v for k, v in data.items() if k not in ("record", "event", "at")}
        return cls(event=data["event"], at=clock.parse_iso(data["at"]), data=payload)


@dataclass
class MetaRecord:
    schema_version: int
    created_at: datetime

    def to_record_dict(self) -> dict:
        return {
            "record": "meta",
            "schema_version": self.schema_version,
            "created_at": clock.iso(self.created_at),
        }

    @classmethod
    def from_record_dict(cls, data: dict) -> "MetaRecord":
        return cls(
            schema_version=data["schema_version"],
            created_at=clock.parse_iso(data["created_at"]),
        )


RECORD_CLASSES = {
    "meta": MetaRecord,
    "entity": TrustedEntity,
    "recipe": RecipeRecord,
    "image": ImageRecord,
    "event": LedgerEvent,
}


def record_bytes(record) -> bytes:
    return canonical_json(record.to_record_dict())


def load_record(rtype: str, data: dict):
    cls = RECORD_CLASSES.get(rtype)
    if cls is None:
        raise SpockError(f"unknown record type: {rtype}")
    return cls.from_record_dict(data)

"""Cascading revocation with forensic archiving, and entity distrust.

Removing a node purges it together with every dependent build: purging a
recipe takes its images and all children below them; purging an image
takes the children that extend it but leaves the image's own recipe
live, so the recipe can be rebuilt after the bad artifact is gone.

Everything purged is captured first in an immutable archive bundle under
``archive/<bundle_id>/``: a manifest plus one file per record, carrying
the exact canonical bytes from the log so signatures still verify years
later. The bundle is fully written and fsynced before the single status
event commits, so a crash in between leaves the ledger untouched.

Purged recipe hashes are barred forever: re-registering or building
byte-identical content fails, while edited content (a different hash) is
admissible again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime

from . import clock, crypto
from .errors import (
    AlreadyDistrustedError,
    NotFoundError,
    PurgedError,
    TamperError,
)
from .ledger import Ledger
from .records import (
    ImageRecord,
    LedgerEvent,
    RecipeRecord,
    STATUS_LIVE,
    canonical_json,
    record_bytes,
)
from .verify import MANIFEST_NAME, read_manifest


@dataclass
class ArchiveBundle:
    bundle_id: str
    created_at: datetime
    reason: str
    removed_recipes: list[RecipeRecord] = field(default_factory=list)
    removed_images: list[ImageRecord] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)


def _closure(ledger: Ledger, seeds: list[tuple[str, str]]) -> tuple[list[RecipeRecord], list[ImageRecord]]:
    """Live dependent closure of ``(type, id)`` seed nodes, the seeds
    included.

    Recipes pull in their images; images pull in the child recipes whose
    signed FROM line names them. Purging an image spares its own recipe.
    """
    recipes: dict[str, RecipeRecord] = {}
    images: dict[str, ImageRecord] = {}
    frontier = list(seeds)
    while frontier:
        node_type, node_id = frontier.pop()
        if node_type == "recipe":
            if node_id in recipes:
                continue
            rec = ledger.recipes[node_id]
            if rec.status != STATUS_LIVE:
                continue
            recipes[node_id] = rec
            for img in ledger.images_of(node_id):
                frontier.append(("image", img.image_id))
        else:
            if node_id in images:
                continue
            img = ledger.images[node_id]
            if img.status != STATUS_LIVE:
                continue
            images[node_id] = img
            for child in ledger.child_recipes_of_image(node_id):
                frontier.append(("recipe", child.recipe_hash))
    recipe_list = sorted(recipes.values(), key=lambda r: r.recipe_hash)
    image_list = sorted(images.values(), key=lambda i: i.image_id)
    return recipe_list, image_list


def _item_name(item_type: str, item_id: str) -> str:
    return f"{item_type}-{item_id}.json"


def _write_bundle(
    ledger: Ledger,
    reason: str,
    recipes: list[RecipeRecord],
    images: list[ImageRecord],
    created_at: datetime,
) -> str:
    """Write an archive bundle and return its id.

    The bundle id is the digest of the manifest body (everything except
    the bundle_id key itself), so any later edit to the manifest or to an
    archived record is detectable.
    """
    import shutil

    items = []
    payloads: dict[str, bytes] = {}
    for rec in recipes:
        payload = record_bytes(rec)
        name = _item_name("recipe", rec.recipe_hash)
        payloads[name] = payload
        items.append({"type": "recipe", "id": rec.recipe_hash, "digest": crypto.digest(payload)})
    for img in images:
        payload = record_bytes(img)
        name = _item_name("image", img.image_id)
        payloads[name] = payload
        items.append({"type": "image", "id": img.image_id, "digest": crypto.digest(payload)})
    items.sort(key=lambda i: (i["type"], i["id"]))
    body = {
        "created_at": clock.iso(created_at),
        "reason": reason,
        "items": items,
    }
    bundle_id = crypto.digest(canonical_json(body))
    manifest = dict(body)
    manifest["bundle_id"] = bundle_id

    tmp_dir = ledger.archive_root / f".tmp-{bundle_id}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)
    for name, payload in payloads.items():
        (tmp_dir / name).write_bytes(payload)
    (tmp_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    if ledger.sync:
        for path in tmp_dir.iterdir():
            _fsync_path(path)
    final_dir = ledger.archive_root / bundle_id
    if final_dir.exists():
        shutil.rmtree(tmp_dir)
    else:
        os.rename(tmp_dir, final_dir)
        if ledger.sync:
            # the rename is durable only once both directories are synced
            _fsync_path(final_dir)
            _fsync_path(ledger.archive_root)
    return bundle_id


def _fsync_path(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def remove(ledger: Ledger, node: str, reason: str) -> ArchiveBundle:
    """Purge a node and its full dependent closure in one atomic event."""
    with ledger.exclusive():
        node_type, record = ledger.resolve(node)
        node_id = record.recipe_hash if node_type == "recipe" else record.image_id  # type: ignore[union-attr]
        if record.status != STATUS_LIVE:  # type: ignore[union-attr]
            raise PurgedError(f"node already purged: {node_id}")
        recipes, images = _closure(ledger, [(node_type, node_id)])
        created_at = clock.now_utc()
        bundle_id = _write_bundle(ledger, reason, recipes, images, created_at)
        ledger.append(
            LedgerEvent(
                event="remove",
                at=created_at,
                data={
                    "target_type": node_type,
                    "target": node_id,
                    "reason": reason,
                    "bundle_id": bundle_id,
                    "purged_recipes": [r.recipe_hash for r in recipes],
                    "purged_images": [i.image_id for i in images],
                },
            )
        )
        return open_archive(ledger, bundle_id)


def distrust(ledger: Ledger, entity_id: str, reason: str) -> ArchiveBundle:
    """Mark an entity distrusted and purge everything its signature
    vouched for, dependents included, as one bundle."""
    with ledger.exclusive():
        entity = ledger.entities.get(entity_id)
        if entity is None:
            raise NotFoundError(f"unknown entity: {entity_id}")
        if entity.status != "trusted":
            raise AlreadyDistrustedError(f"entity already distrusted: {entity_id}")
        live = {"status": STATUS_LIVE, "signer": entity_id}
        seeds = [("recipe", r.recipe_hash) for r in ledger.list_recipes(**live)]
        seeds += [("image", i.image_id) for i in ledger.list_images(**live)]
        recipes, images = _closure(ledger, seeds)
        created_at = clock.now_utc()
        bundle_id = _write_bundle(ledger, reason, recipes, images, created_at)
        ledger.append(
            LedgerEvent(
                event="distrust",
                at=created_at,
                data={
                    "entity_id": entity_id,
                    "reason": reason,
                    "bundle_id": bundle_id,
                    "purged_recipes": [r.recipe_hash for r in recipes],
                    "purged_images": [i.image_id for i in images],
                },
            )
        )
        return open_archive(ledger, bundle_id)


def list_archives(ledger: Ledger) -> list[dict]:
    """Bundle summaries from the audit history, oldest first."""
    return list(ledger.archives.values())


def open_archive(ledger: Ledger, bundle_id: str) -> ArchiveBundle:
    """Load a bundle and verify its integrity against the manifest."""
    bundle_dir = ledger.archive_root / bundle_id
    manifest = read_manifest(ledger.archive_root, bundle_id)
    bundle = ArchiveBundle(
        bundle_id=bundle_id,
        created_at=clock.parse_iso(manifest["created_at"]),
        reason=manifest["reason"],
        manifest=manifest,
    )
    for item in manifest["items"]:
        payload_path = bundle_dir / _item_name(item["type"], item["id"])
        if not payload_path.is_file():
            raise TamperError(f"bundle item missing: {payload_path.name}")
        payload = payload_path.read_bytes()
        if crypto.digest(payload) != item["digest"]:
            raise TamperError(f"bundle item digest mismatch: {payload_path.name}")
        data = json.loads(payload)
        if item["type"] == "recipe":
            record = RecipeRecord.from_record_dict(data)
            record.status = "purged"
            bundle.removed_recipes.append(record)
        else:
            image = ImageRecord.from_record_dict(data)
            image.status = "purged"
            bundle.removed_images.append(image)
    return bundle

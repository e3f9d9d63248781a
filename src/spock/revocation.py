"""Cascading revocation with forensic archiving, and entity distrust.

Removing a node purges it together with every dependent build: purging a
recipe takes its images and all children below them; purging an image
takes the children that extend it but leaves the image's own recipe
live, so the recipe can be rebuilt after the bad artifact is gone.

``remove`` and ``distrust`` both purge through ``_purge``. Everything
purged is captured first in an immutable archive bundle under
``archive/<bundle_id>/``: a manifest plus one file per record, carrying
the exact canonical bytes from the log so signatures still verify years
later. The bundle is fully written and fsynced before the single status
event commits, so a crash in between leaves the ledger untouched.
``verify.read_bundle`` reads bundles back, for ``validate`` too.

Purged recipe hashes are barred forever: re-registering or building
byte-identical content fails, while edited content (a different hash) is
admissible again.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from datetime import datetime

from . import clock, crypto
from .errors import AlreadyDistrustedError, NotFoundError, PurgedError
from .ledger import Ledger
from .records import (
    ImageRecord,
    LedgerEvent,
    RecipeRecord,
    STATUS_LIVE,
    STATUS_PURGED,
    STATUS_TRUSTED,
    canonical_json,
    record_bytes,
)
from .verify import MANIFEST_NAME, bundle_item_name, check_write, read_bundle


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
    included. Recipes pull in their images; an image pulls in only the
    child recipes whose signed FROM line names it, never its own recipe."""
    found: dict[str, dict] = {"recipe": {}, "image": {}}
    frontier = list(seeds)
    while frontier:
        node_type, node_id = frontier.pop()
        if node_id in found[node_type]:
            continue
        record = (ledger.recipes if node_type == "recipe" else ledger.images)[node_id]
        if record.status != STATUS_LIVE:
            continue
        found[node_type][node_id] = record
        if node_type == "recipe":
            frontier += [("image", img.image_id) for img in ledger.images_of(node_id)]
        else:
            frontier += [("recipe", c.recipe_hash) for c in ledger.child_recipes_of_image(node_id)]
    recipes, images = found["recipe"], found["image"]
    return [recipes[h] for h in sorted(recipes)], [images[i] for i in sorted(images)]


def _write_bundle(
    ledger: Ledger,
    reason: str,
    recipes: list[RecipeRecord],
    images: list[ImageRecord],
    created_at: datetime,
) -> str:
    """Write an archive bundle and return its id: the digest of the
    manifest without its bundle_id key, so any later edit to the manifest
    or to an archived record is detectable."""
    items = []
    payloads: dict[str, bytes] = {}
    for item_type, item_id, record in [
        *(("recipe", r.recipe_hash, r) for r in recipes),
        *(("image", i.image_id, i) for i in images),
    ]:
        payload = payloads[bundle_item_name(item_type, item_id)] = record_bytes(record)
        items.append({"type": item_type, "id": item_id, "digest": crypto.digest(payload)})
    items.sort(key=lambda i: (i["type"], i["id"]))
    body = {"created_at": clock.iso(created_at), "reason": reason, "items": items}
    bundle_id = crypto.digest(canonical_json(body))
    manifest = {**body, "bundle_id": bundle_id}
    payloads[MANIFEST_NAME] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()

    tmp_dir = ledger.archive_root / f".tmp-{bundle_id}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir(parents=True)
    for name, payload in payloads.items():
        (tmp_dir / name).write_bytes(payload)
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


def _purge(
    ledger: Ledger, seeds: list[tuple[str, str]], event: str, reason: str, data: dict
) -> ArchiveBundle:
    """Archive the live closure of ``seeds``, then commit its purge as one
    ``event`` carrying ``data``, and read the bundle back. The caller holds
    the writer lock."""
    check_write(ledger)  # before the bundle, so a refused purge leaves archive/ as it was
    recipes, images = _closure(ledger, seeds)
    created_at = clock.now_utc()
    bundle_id = _write_bundle(ledger, reason, recipes, images, created_at)
    ledger.append(
        LedgerEvent(
            event=event,
            at=created_at,
            data={
                **data,
                "reason": reason,
                "bundle_id": bundle_id,
                "purged_recipes": [r.recipe_hash for r in recipes],
                "purged_images": [i.image_id for i in images],
            },
        )
    )
    return open_archive(ledger, bundle_id)


def remove(ledger: Ledger, node: str, reason: str) -> ArchiveBundle:
    """Purge a node and its full dependent closure in one atomic event."""
    with ledger.exclusive():
        node_type, record = ledger.resolve(node)
        node_id = record.recipe_hash if node_type == "recipe" else record.image_id  # type: ignore[union-attr]
        if record.status != STATUS_LIVE:  # type: ignore[union-attr]
            raise PurgedError(f"node already purged: {node_id}")
        data = {"target_type": node_type, "target": node_id}
        return _purge(ledger, [(node_type, node_id)], "remove", reason, data)


def distrust(ledger: Ledger, entity_id: str, reason: str) -> ArchiveBundle:
    """Mark an entity distrusted and purge everything its signature
    vouched for, dependents included, as one bundle."""
    with ledger.exclusive():
        entity = ledger.entities.get(entity_id)
        if entity is None:
            raise NotFoundError(f"unknown entity: {entity_id}")
        if entity.status != STATUS_TRUSTED:
            raise AlreadyDistrustedError(f"entity already distrusted: {entity_id}")
        live = {"status": STATUS_LIVE, "signer": entity_id}
        seeds = [("recipe", r.recipe_hash) for r in ledger.list_recipes(**live)]
        seeds += [("image", i.image_id) for i in ledger.list_images(**live)]
        return _purge(ledger, seeds, "distrust", reason, {"entity_id": entity_id})


def list_archives(ledger: Ledger) -> list[dict]:
    """Bundle summaries from the purge events, oldest first; a bundle id
    named twice keeps its first place and takes its last event's summary."""
    archives: dict[str, dict] = {}
    for event in ledger.events:
        data = event.data
        if event.event in ("remove", "distrust") and data.get("bundle_id"):
            archives[data["bundle_id"]] = {
                "bundle_id": data["bundle_id"], "created_at": clock.iso(event.at),
                "reason": data.get("reason", ""), "event": event.event,
                "recipes": len(data.get("purged_recipes", [])), "images": len(data.get("purged_images", [])),
            }
    return list(archives.values())


def open_archive(ledger: Ledger, bundle_id: str) -> ArchiveBundle:
    """Load a bundle through ``verify.read_bundle``, which raises unless
    every file is intact; the records come back marked purged."""
    manifest, records = read_bundle(ledger.archive_root, bundle_id)
    bundle = ArchiveBundle(
        bundle_id=bundle_id,
        created_at=clock.parse_iso(manifest["created_at"]),
        reason=manifest["reason"],
        manifest=manifest,
    )
    for record in records:
        record.status = STATUS_PURGED
        (bundle.removed_recipes if isinstance(record, RecipeRecord) else bundle.removed_images).append(record)
    return bundle

"""Lineage and audit queries over the recipe/image forest.

A node is a recipe together with the images built from it. Child recipes
point at the specific parent image they extend, which makes the upward
path from any node to its root unique. Purged nodes stay queryable and
are flagged rather than hidden, because the history is append-only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import crypto
from .errors import NotFoundError
from .ledger import Ledger
from .records import ImageRecord, RecipeRecord, STATUS_LIVE, STATUS_TRUSTED


@dataclass(frozen=True)
class LineageNode:
    recipe_hash: str
    image_id: str | None
    signer_id: str
    kind: str
    recipe_status: str
    image_status: str | None


def _node_recipe(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> tuple[RecipeRecord, ImageRecord | None]:
    """Resolve a node reference to (recipe, image-on-path-or-None)."""
    if isinstance(node, RecipeRecord):
        return node, None
    if isinstance(node, ImageRecord):
        return ledger.get_recipe(node.recipe_hash), node
    kind, record = ledger.resolve(node)
    if kind == "image":
        assert isinstance(record, ImageRecord)
        return ledger.get_recipe(record.recipe_hash), record
    assert isinstance(record, RecipeRecord)
    return record, None


def _display_image_for(ledger: Ledger, recipe: RecipeRecord) -> ImageRecord | None:
    """The image shown for a recipe node: its live image, else its most
    recent purged one, else None."""
    images = ledger.images_of(recipe.recipe_hash)
    if not images:
        return None
    for img in images:
        if img.status == STATUS_LIVE:
            return img
    return images[-1]


def lineage(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> list[LineageNode]:
    """Unique path from a node's root down to the node itself."""
    recipe, image = _node_recipe(ledger, node)
    if image is None:
        image = _display_image_for(ledger, recipe)
    path: list[LineageNode] = []
    while True:
        path.append(
            LineageNode(
                recipe_hash=recipe.recipe_hash,
                image_id=image.image_id if image is not None else None,
                signer_id=recipe.signer_id,
                kind=recipe.kind,
                recipe_status=recipe.status,
                image_status=image.status if image is not None else None,
            )
        )
        if recipe.parent_image_id is None:
            break
        parent_image = ledger.images.get(recipe.parent_image_id)
        if parent_image is None:
            raise NotFoundError(f"lineage broken: missing image {recipe.parent_image_id}")
        recipe = ledger.get_recipe(parent_image.recipe_hash)
        image = parent_image
    path.reverse()
    return path


def children(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> list[RecipeRecord]:
    """Direct child recipes, ordered by registration time then hash."""
    recipe, image = _node_recipe(ledger, node)
    if image is not None:
        return ledger.child_recipes_of_image(image.image_id)
    out: list[RecipeRecord] = []
    for img in ledger.images_of(recipe.recipe_hash):
        out.extend(ledger.child_recipes_of_image(img.image_id))
    out.sort(key=lambda r: (r.registered_at, r.recipe_hash))
    return out


def descendants(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> set[str]:
    """Recipe hashes of every transitive dependent, excluding the node."""
    out: set[str] = set()
    frontier = children(ledger, node)
    while frontier:
        rec = frontier.pop()
        if rec.recipe_hash in out:
            continue
        out.add(rec.recipe_hash)
        frontier.extend(children(ledger, rec))
    return out


def recipe_record_problems(ledger: Ledger, recipe: RecipeRecord) -> list[str]:
    """Verify one recipe record: live, content-addressed correctly, and
    signed by a currently trusted entity."""
    problems: list[str] = []
    rref = f"recipe:{recipe.recipe_hash}"
    if recipe.status != STATUS_LIVE:
        problems.append(f"purged:{rref}")
    signer = ledger.entities.get(recipe.signer_id)
    if signer is None:
        problems.append(f"missing:entity:{recipe.signer_id}")
    else:
        if signer.status != STATUS_TRUSTED:
            problems.append(f"untrusted-signer:{recipe.signer_id}")
        if not (
            recipe.signature.signer_id == recipe.signer_id
            and crypto.verify(recipe.content, recipe.signature, signer.public_key)
        ):
            problems.append(f"signature-invalid:{rref}")
    if crypto.digest(recipe.content) != recipe.recipe_hash:
        problems.append(f"signature-invalid:{rref}")
    return problems


def image_record_problems(ledger: Ledger, image: ImageRecord) -> list[str]:
    """Verify one image record: live and signed by a currently trusted
    entity."""
    problems: list[str] = []
    iref = f"image:{image.image_id}"
    if image.status != STATUS_LIVE:
        problems.append(f"purged:{iref}")
    signer = ledger.entities.get(image.signer_id)
    if signer is None:
        problems.append(f"missing:entity:{image.signer_id}")
    else:
        if signer.status != STATUS_TRUSTED:
            problems.append(f"untrusted-signer:{image.signer_id}")
        if not (
            image.signature.signer_id == image.signer_id
            and crypto.verify(image.signed_bytes(), image.signature, signer.public_key)
        ):
            problems.append(f"signature-invalid:{iref}")
    return problems


def lineage_problems(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> list[str]:
    """Verify a node's full ancestry: every recipe and image on the path
    live, signature-valid, and signed by a currently trusted entity.
    Returns an ordered list of problem strings, empty when clean."""
    problems: list[str] = []
    try:
        path = lineage(ledger, node)
    except NotFoundError as exc:
        return [f"missing:{exc.message}"]
    for pnode in path:
        problems.extend(recipe_record_problems(ledger, ledger.get_recipe(pnode.recipe_hash)))
        if pnode.image_id is not None:
            problems.extend(image_record_problems(ledger, ledger.get_image(pnode.image_id)))
    return problems


def short_labels(ledger: Ledger) -> dict[str, str]:
    """Shortest hash prefix that uniquely names each recipe in this ledger.

    In sorted order a hash shares its longest prefix with one of its two
    neighbours, so one pass over adjacent pairs finds every label.
    """
    hashes = sorted(ledger.recipes)
    shared = [0] * len(hashes)
    for i in range(1, len(hashes)):
        n = len(os.path.commonprefix((hashes[i - 1], hashes[i])))
        shared[i - 1] = max(shared[i - 1], n)
        shared[i] = n
    return {h: h[: n + 1] for h, n in zip(hashes, shared)}


def show_content(ledger: Ledger, node: str, with_lineage: bool = False) -> str:
    """Recipe text for a node, or every recipe on its lineage path with
    per-node headers when ``with_lineage`` is set."""
    if not with_lineage:
        recipe, _ = _node_recipe(ledger, node)
        return recipe.text
    labels = short_labels(ledger)
    parts: list[str] = []
    for pnode in lineage(ledger, node):
        recipe = ledger.get_recipe(pnode.recipe_hash)
        header = (
            f"===== {labels[pnode.recipe_hash]} [{pnode.kind}, {pnode.recipe_status}] "
            f"{pnode.recipe_hash} ====="
        )
        parts.append(header)
        parts.append(recipe.text.rstrip("\n"))
    return "\n".join(parts) + "\n"


def _tree_data(ledger: Ledger) -> tuple[list[dict], list[dict]]:
    labels = short_labels(ledger)
    nodes = []
    for rec in ledger.recipes.values():
        nodes.append(
            {
                "hash": rec.recipe_hash,
                "label": labels[rec.recipe_hash],
                "kind": rec.kind,
                "status": rec.status,
                "signer": rec.signer_id,
                "images": [
                    {
                        "image_id": img.image_id,
                        "status": img.status,
                        "image_digest": img.image_digest,
                        "signer": img.signer_id,
                    }
                    for img in ledger.images_of(rec.recipe_hash)
                ],
            }
        )
    edges = []
    for rec in ledger.recipes.values():
        if rec.parent_image_id is None:
            continue
        parent_image = ledger.images.get(rec.parent_image_id)
        if parent_image is None:
            continue
        edges.append(
            {
                "from": parent_image.recipe_hash,
                "to": rec.recipe_hash,
                "parent_image": rec.parent_image_id,
            }
        )
    return nodes, edges


def export_tree(ledger: Ledger, format: str = "json") -> str:
    """Serialize the whole forest. ``json`` is schema-stable; ``dot``
    renders one node per recipe with live/purged styling."""
    nodes, edges = _tree_data(ledger)
    if format == "json":
        return json.dumps({"nodes": nodes, "edges": edges}, indent=2, sort_keys=True) + "\n"
    if format == "dot":
        labels = {node["hash"]: node["label"] for node in nodes}
        lines = ["digraph provenance {"]
        for node in sorted(nodes, key=lambda n: n["label"]):
            label = node["label"]
            ident = _dot_id(label)
            style = "solid" if node["status"] == STATUS_LIVE else "dashed"
            text = f"{label[:12]} ({node['kind']}, {node['status']})"
            lines.append(f'  {ident} [label="{text}", style={style}];')
        for edge in sorted(edges, key=lambda e: (labels[e["from"]], labels[e["to"]])):
            lines.append(f"  {_dot_id(labels[edge['from']])} -> {_dot_id(labels[edge['to']])};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise NotFoundError(f"unknown tree format: {format}")


def _dot_id(label: str) -> str:
    # Bare identifiers are only legal in dot for alphanumeric names that
    # do not start with a digit, or for plain numerals.
    if label.isdigit() or (label.isalnum() and not label[0].isdigit()):
        return label
    return f'"{label}"'

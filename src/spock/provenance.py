"""Lineage and audit queries over the recipe/image forest.

A node is a recipe together with the images built from it. A child
recipe's signed FROM line names the specific parent image it extends,
which makes the upward path from any node to its root unique. Purged
nodes stay queryable and are flagged rather than hidden, because the
history is append-only.

``lineage_problems`` is the one admission rule: ``check``, ``run``,
``child`` (for the parent image), ``build`` (for the recipe) and
``diff-rebuild`` ask it, and none of them repeats any of its checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import NotFoundError
from .ledger import Ledger
from .records import ImageRecord, RecipeRecord, STATUS_LIVE
from .verify import MISSING, SIGNATURE_INVALID, TAMPER_CHECKS, UNKNOWN_IMAGE, Problem, record_problems


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


def _path(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> list[tuple[RecipeRecord, ImageRecord | None]]:
    """(recipe, image) pairs from a node's root down to the node, each
    recipe's parent taken from its signed FROM line. A forged log can
    make that link loop, which is a broken lineage too. A recipe node
    carries no image of its own."""
    recipe, image = _node_recipe(ledger, node)
    path = [(recipe, image)]
    visited: set[str] = set()
    while (parent_id := ledger.parent_of(recipe.recipe_hash)) is not None:
        if parent_id in visited:
            raise NotFoundError(f"lineage broken: cycle through image {parent_id}")
        visited.add(parent_id)
        image = ledger.images.get(parent_id)
        if image is None:
            raise NotFoundError(f"lineage broken: missing image {parent_id}")
        recipe = ledger.get_recipe(image.recipe_hash)
        path.append((recipe, image))
    path.reverse()
    return path


def lineage(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> list[LineageNode]:
    """Unique path from a node's root down to the node itself. A recipe
    node shows its live image, else its most recent purged one."""
    path = _path(ledger, node)
    recipe, image = path[-1]
    if image is None:
        images = ledger.images_of(recipe.recipe_hash)
        path[-1] = (recipe, ledger.live_image_for(recipe.recipe_hash) or (images[-1] if images else None))
    return [
        LineageNode(
            recipe_hash=recipe.recipe_hash,
            image_id=image.image_id if image is not None else None,
            signer_id=recipe.signer_id,
            kind=recipe.kind,
            recipe_status=recipe.status,
            image_status=image.status if image is not None else None,
        )
        for recipe, image in path
    ]


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


def lineage_problems(ledger: Ledger, node: str | RecipeRecord | ImageRecord) -> list[Problem]:
    """Why a node may not be run, extended or built; empty when it may.
    A sign that ``ledger.log`` was altered denies every node. A string is
    an exact image id, denied when unknown. Every recipe and image on the
    path must pass its record checks, be live and have a signer trusted
    now; a recipe node is checked without an image of its own."""
    problems = [Problem(SIGNATURE_INVALID, i.ref) for i in ledger.issues if i.check in TAMPER_CHECKS]
    if isinstance(node, str):
        image = ledger.images.get(node)
        if image is None:
            return [*problems, Problem(UNKNOWN_IMAGE, node)]
        node = image
    try:
        path = _path(ledger, node)
    except NotFoundError as exc:
        return [*problems, Problem(MISSING, exc.message)]
    for recipe, image in path:
        problems.extend(record_problems(ledger, recipe))
        if image is not None:
            problems.extend(record_problems(ledger, image))
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
    for recipe, _ in _path(ledger, node):
        header = (
            f"===== {labels[recipe.recipe_hash]} [{recipe.kind}, {recipe.status}] "
            f"{recipe.recipe_hash} ====="
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
        parent_image = ledger.images.get(ledger.parent_of(rec.recipe_hash))
        if parent_image is None:
            continue
        edges.append(
            {
                "from": parent_image.recipe_hash,
                "to": rec.recipe_hash,
                "parent_image": parent_image.image_id,
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

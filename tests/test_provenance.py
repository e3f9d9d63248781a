from __future__ import annotations

import json
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from spock import MockEngine, builder, provenance, recipe, revocation
from spock.errors import NotFoundError
from tests.conftest import ROOT_TEXT, register_and_build


def test_fig_tree_lineage_of_leaf(fig_tree):
    ledger = fig_tree["ledger"]
    path = provenance.lineage(ledger, fig_tree["leaf"].recipe_hash)
    hashes = [n.recipe_hash for n in path]
    assert hashes == [
        fig_tree["root"].recipe_hash,
        fig_tree["mid"].recipe_hash,
        fig_tree["leaf"].recipe_hash,
    ]
    labels = provenance.short_labels(ledger)
    assert [labels[h] for h in hashes] == ["5", "3", "1"]


def test_lineage_of_root_is_single_node(fig_tree):
    ledger = fig_tree["ledger"]
    path = provenance.lineage(ledger, fig_tree["root"].recipe_hash)
    assert len(path) == 1
    assert path[0].kind == "root"


def test_lineage_unknown_node(fig_tree):
    with pytest.raises(NotFoundError):
        provenance.lineage(fig_tree["ledger"], "f" * 64)


def test_lineage_by_image_id(fig_tree):
    ledger = fig_tree["ledger"]
    path = provenance.lineage(ledger, fig_tree["leaf_image"].image_id)
    assert [n.recipe_hash for n in path][-1] == fig_tree["leaf"].recipe_hash
    assert path[-1].image_id == fig_tree["leaf_image"].image_id


def test_lineage_never_repeats_and_starts_at_root(fig_tree):
    ledger = fig_tree["ledger"]
    for node in ledger.recipes:
        path = provenance.lineage(ledger, node)
        hashes = [n.recipe_hash for n in path]
        assert len(hashes) == len(set(hashes))
        assert path[0].kind == "root"


def test_children_ordering_and_leaf_empty(fig_tree):
    ledger = fig_tree["ledger"]
    mids = provenance.children(ledger, fig_tree["root"].recipe_hash)
    assert [r.recipe_hash for r in mids] == [fig_tree["mid"].recipe_hash]
    assert provenance.children(ledger, fig_tree["leaf"].recipe_hash) == []


def test_descendants_of_root_is_everything_else(fig_tree):
    ledger = fig_tree["ledger"]
    got = provenance.descendants(ledger, fig_tree["root"].recipe_hash)
    assert got == {fig_tree["mid"].recipe_hash, fig_tree["leaf"].recipe_hash}


def test_descendants_over_chain_of_five(trusted_ledger):
    ledger, signer, private = trusted_ledger
    engine = MockEngine()
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    first = rec.recipe_hash
    for i in range(4):
        child = recipe.register_child(
            ledger, f"FROM trusted:{image.image_id}\nRUN echo {i}\n", signer, private
        )
        image = builder.build(ledger, child.recipe_hash, engine, signer, private)
    assert len(provenance.descendants(ledger, first)) == 4


def test_descendants_matches_brute_force_oracle(trusted_ledger):
    ledger, signer, private = trusted_ledger
    engine = MockEngine()
    rng = random.Random(7)
    images = []
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    images.append(image)
    for i in range(12):
        if rng.random() < 0.3:
            rec2, image2 = register_and_build(
                ledger, f"FROM base{i}\nRUN echo {i}\n", signer, private
            )
            images.append(image2)
        else:
            parent = rng.choice(images)
            child = recipe.register_child(
                ledger, f"FROM trusted:{parent.image_id}\nRUN echo {i}\n", signer, private
            )
            images.append(builder.build(ledger, child.recipe_hash, engine, signer, private))

    # independent reachability: adjacency rebuilt from raw records
    child_edges: dict[str, set[str]] = {}
    for r in ledger.recipes.values():
        if r.parent_image_id is None:
            continue
        parent_recipe = ledger.images[r.parent_image_id].recipe_hash
        child_edges.setdefault(parent_recipe, set()).add(r.recipe_hash)

    def brute(h: str) -> set[str]:
        out, stack = set(), [h]
        while stack:
            for nxt in child_edges.get(stack.pop(), ()):
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    for h in ledger.recipes:
        assert provenance.descendants(ledger, h) == brute(h)


def test_show_content_plain(fig_tree):
    ledger = fig_tree["ledger"]
    text = provenance.show_content(ledger, fig_tree["leaf"].recipe_hash)
    assert text == fig_tree["leaf"].text


def test_show_content_with_lineage_concatenates_root_to_target(fig_tree):
    ledger = fig_tree["ledger"]
    text = provenance.show_content(ledger, fig_tree["leaf"].recipe_hash, with_lineage=True)
    assert text.index("RUN echo base") < text.index("RUN echo middle") < text.index("RUN echo leaf")
    assert f"===== 5 [root, live] {fig_tree['root'].recipe_hash} =====" in text
    assert f"===== 1 [child, live] {fig_tree['leaf'].recipe_hash} =====" in text


def test_export_tree_empty_ledger(fresh_ledger):
    data = json.loads(provenance.export_tree(fresh_ledger, format="json"))
    assert data == {"nodes": [], "edges": []}


def test_export_tree_json_round_trip(fig_tree):
    ledger = fig_tree["ledger"]
    data = json.loads(provenance.export_tree(ledger, format="json"))
    node_hashes = {n["hash"] for n in data["nodes"]}
    assert node_hashes == set(ledger.recipes)
    edge_set = {(e["from"], e["to"]) for e in data["edges"]}
    assert edge_set == {
        (fig_tree["root"].recipe_hash, fig_tree["mid"].recipe_hash),
        (fig_tree["mid"].recipe_hash, fig_tree["leaf"].recipe_hash),
    }
    for node in data["nodes"]:
        assert set(node) == {"hash", "label", "kind", "status", "signer", "images"}
        for image in node["images"]:
            assert set(image) == {"image_id", "status", "image_digest", "signer"}


def test_export_tree_dot_contains_labeled_edges(fig_tree):
    dot = provenance.export_tree(fig_tree["ledger"], format="dot")
    assert "5 -> 3" in dot
    assert "3 -> 1" in dot
    assert dot.startswith("digraph")


def test_export_tree_dot_marks_purged_nodes(fig_tree):
    ledger = fig_tree["ledger"]
    revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "bad")
    dot = provenance.export_tree(ledger, format="dot")
    assert "(child, purged)" in dot
    assert "style=dashed" in dot


def test_purged_nodes_remain_queryable(fig_tree):
    ledger = fig_tree["ledger"]
    revocation.remove(ledger, fig_tree["mid"].recipe_hash, "bad")
    path = provenance.lineage(ledger, fig_tree["leaf"].recipe_hash)
    statuses = [n.recipe_status for n in path]
    assert statuses == ["live", "purged", "purged"]


def test_queries_do_not_mutate_the_ledger(fig_tree):
    ledger = fig_tree["ledger"]
    before = ledger.log_path.read_bytes()
    provenance.lineage(ledger, fig_tree["leaf"].recipe_hash)
    provenance.children(ledger, fig_tree["root"].recipe_hash)
    provenance.descendants(ledger, fig_tree["root"].recipe_hash)
    provenance.show_content(ledger, fig_tree["leaf"].recipe_hash, with_lineage=True)
    provenance.export_tree(ledger, format="json")
    provenance.export_tree(ledger, format="dot")
    assert ledger.log_path.read_bytes() == before


def test_short_labels_grow_until_unique(trusted_ledger):
    ledger, signer, private = trusted_ledger
    hashes = []
    for i in range(8):
        rec = recipe.register_root(ledger, f"FROM base{i}\nRUN echo {i}\n", signer, private)
        hashes.append(rec.recipe_hash)
    labels = provenance.short_labels(ledger)
    assert len(set(labels.values())) == len(hashes)
    for h, label in labels.items():
        assert h.startswith(label)
        others = [o for o in hashes if o != h]
        assert not any(o.startswith(label) for o in others)


# ----------------------------------------------------------------------
# short labels against the quadratic reference


HEX = "0123456789abcdef"


def quadratic_short_labels(hashes) -> dict[str, str]:
    """The original definition: grow each prefix until no other hash
    starts with it."""
    hashes = sorted(hashes)
    labels: dict[str, str] = {}
    for h in hashes:
        n = 1
        while n < len(h) and any(o != h and o.startswith(h[:n]) for o in hashes):
            n += 1
        labels[h] = h[:n]
    return labels


@st.composite
def hash_sets(draw) -> set[str]:
    """Sets of 64-hex hashes drawn around a few forced shared prefixes, up
    to 63 characters long, so neighbours often agree far into the hash."""
    prefixes = draw(st.lists(st.text(HEX, max_size=63), min_size=1, max_size=4))
    size = draw(st.one_of(st.just(1), st.just(2), st.integers(3, 300)))
    rng = draw(st.randoms(use_true_random=False))
    hashes: set[str] = set()
    for _ in range(size):
        prefix = rng.choice(prefixes)
        hashes.add(prefix + "".join(rng.choice(HEX) for _ in range(64 - len(prefix))))
    return hashes


@settings(max_examples=60, deadline=None)
@given(hash_sets())
def test_short_labels_match_quadratic_reference(hashes):
    labels = provenance.short_labels(SimpleNamespace(recipes=dict.fromkeys(hashes)))
    assert labels == quadratic_short_labels(hashes)
    for h, label in labels.items():
        assert not any(o != h and o.startswith(label) for o in hashes)
        if len(label) > 1:
            # minimal: one character shorter no longer names h alone
            assert any(o != h and o.startswith(label[:-1]) for o in hashes)


def _chain_forest(n: int) -> SimpleNamespace:
    """Stand-in ledger: n recipes, each with one live image, each recipe
    extending the previous recipe's image."""
    rng = random.Random(50)
    recipes: dict[str, SimpleNamespace] = {}
    images: dict[str, SimpleNamespace] = {}
    parent_image = None
    for i in range(n):
        h = f"{rng.getrandbits(256):064x}"
        recipes[h] = SimpleNamespace(
            recipe_hash=h,
            kind="root" if parent_image is None else "child",
            status="live",
            signer_id="alice",
            parent_image_id=parent_image,
        )
        parent_image = f"20260102T030405Z-{h}"
        images[parent_image] = SimpleNamespace(
            image_id=parent_image, recipe_hash=h, status="live",
            image_digest=h, signer_id="alice",
        )
    by_recipe = {img.recipe_hash: [img] for img in images.values()}
    return SimpleNamespace(
        recipes=recipes, images=images, images_of=lambda h: by_recipe.get(h, [])
    )


def test_short_labels_and_export_tree_scale_to_50000_recipes():
    forest = _chain_forest(50_000)
    start = time.perf_counter()
    labels = provenance.short_labels(forest)
    tree = json.loads(provenance.export_tree(forest, format="json"))
    dot = provenance.export_tree(forest, format="dot")
    elapsed = time.perf_counter() - start
    assert len(set(labels.values())) == 50_000
    assert len(tree["nodes"]) == 50_000 and len(tree["edges"]) == 49_999
    assert dot.count(" -> ") == 49_999
    assert elapsed < 10.0, f"took {elapsed:.1f} s"

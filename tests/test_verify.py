"""The one verification routine: forged fields the signature does not
cover, reason mapping, how many signature checks each caller pays, and
the one parent link every forest walk follows."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spock.crypto
from spock import Ledger, MockEngine, builder, clock, crypto, provenance, recipe, revocation, rungate
from spock.errors import SignatureInvalidError
from spock.ledger import append_line
from spock.records import ImageRecord, RecipeRecord, canonical_json
from spock.verify import Problem, record_problems
from tests.conftest import ROOT_TEXT, register_and_build


def _rewrite_recipe_line(ledger: Ledger, recipe_hash: str, **fields) -> None:
    """Change fields of a recipe's log line and recompute the line digest,
    as anyone with write access to the log can."""
    lines = ledger.log_path.read_bytes().split(b"\n")
    for i, line in enumerate(lines):
        if not line:
            continue
        _, rtype, payload_b64 = line.decode("ascii").split(" ")
        data = json.loads(crypto.decode_text(payload_b64))
        if rtype == "recipe" and data["recipe_hash"] == recipe_hash:
            data.update(fields)
            payload = canonical_json(data)
            lines[i] = f"{crypto.digest(payload)} recipe {crypto.encode_text(payload)}".encode("ascii")
            break
    else:
        raise AssertionError(f"no log line for recipe {recipe_hash}")
    ledger.log_path.write_bytes(b"\n".join(lines))


@pytest.fixture
def two_roots_and_child(trusted_ledger):
    """Roots A and B, each built, and child C registered from A's image."""
    ledger, signer, private = trusted_ledger
    _, image_a = register_and_build(ledger, ROOT_TEXT, signer, private)
    _, image_b = register_and_build(ledger, "FROM debian:12\nRUN echo b\n", signer, private)
    child = recipe.register_child(
        ledger, f"FROM trusted:{image_a.image_id}\nRUN echo child\n", signer, private
    )
    return ledger, signer, private, image_a, image_b, child


def test_forged_parent_of_built_child_is_denied(two_roots_and_child):
    ledger, signer, private, image_a, image_b, child = two_roots_and_child
    child_image = builder.build(ledger, child.recipe_hash, MockEngine(), signer, private)
    _rewrite_recipe_line(ledger, child.recipe_hash, parent_image_id=image_b.image_id)

    forged = Ledger.open(ledger.root, sync=False)
    assert forged.issues == []  # the rewritten line carries a valid digest
    decision = rungate.check_runnable(forged, child_image.image_id)
    assert decision.verdict == "deny"
    assert f"signature-invalid:image:{child_image.image_id}" in decision.reasons
    assert f"signature-invalid:recipe:{child.recipe_hash}" in decision.reasons
    failed = {(e.ref, e.check) for e in forged.validate_all().failures()}
    assert (f"recipe:{child.recipe_hash}", "kind-parent") in failed
    assert (f"image:{child_image.image_id}", "parent-mirrors-recipe") in failed


def test_forged_parent_of_unbuilt_child_is_not_built(two_roots_and_child):
    ledger, signer, private, image_a, image_b, child = two_roots_and_child
    _rewrite_recipe_line(ledger, child.recipe_hash, parent_image_id=image_b.image_id)

    forged = Ledger.open(ledger.root, sync=False)
    assert forged.issues == []
    with pytest.raises(SignatureInvalidError):
        builder.build(forged, child.recipe_hash, MockEngine(), signer, private)
    assert forged.images_of(child.recipe_hash) == []
    report = forged.validate_all()
    assert [(e.ref, e.check) for e in report.failures()] == [
        (f"recipe:{child.recipe_hash}", "kind-parent")
    ]


@pytest.fixture
def forged_built_child(two_roots_and_child):
    """Child C built from A's image, then its stored parent rewritten to
    B's image; the signed FROM line still names A's image."""
    ledger, signer, private, image_a, image_b, child = two_roots_and_child
    child_image = builder.build(ledger, child.recipe_hash, MockEngine(), signer, private)
    _rewrite_recipe_line(ledger, child.recipe_hash, parent_image_id=image_b.image_id)
    forged = Ledger.open(ledger.root, sync=False)
    return forged, image_a, image_b, child, child_image


def test_lineage_follows_the_signed_parent(forged_built_child):
    forged, image_a, _, child, child_image = forged_built_child
    path = provenance.lineage(forged, child_image.image_id)
    assert [(n.recipe_hash, n.image_id) for n in path] == [
        (image_a.recipe_hash, image_a.image_id),
        (child.recipe_hash, child_image.image_id),
    ]


def test_tree_edge_comes_from_the_signed_parent(forged_built_child):
    forged, image_a, _, child, _ = forged_built_child
    edges = json.loads(provenance.export_tree(forged))["edges"]
    assert [e for e in edges if e["to"] == child.recipe_hash] == [
        {"from": image_a.recipe_hash, "to": child.recipe_hash, "parent_image": image_a.image_id}
    ]


def test_remove_of_the_signed_root_purges_the_forged_child(forged_built_child):
    forged, image_a, _, child, child_image = forged_built_child
    bundle = revocation.remove(forged, image_a.recipe_hash, "signed root")
    assert {r.recipe_hash for r in bundle.removed_recipes} == {image_a.recipe_hash, child.recipe_hash}
    assert {i.image_id for i in bundle.removed_images} == {image_a.image_id, child_image.image_id}
    assert forged.recipes[child.recipe_hash].status == "purged"
    assert forged.images[child_image.image_id].status == "purged"


def test_remove_of_the_stored_root_spares_the_forged_child(forged_built_child):
    forged, _, image_b, child, child_image = forged_built_child
    bundle = revocation.remove(forged, image_b.recipe_hash, "stored root")
    assert [r.recipe_hash for r in bundle.removed_recipes] == [image_b.recipe_hash]
    assert [i.image_id for i in bundle.removed_images] == [image_b.image_id]
    assert forged.recipes[child.recipe_hash].status == "live"
    assert forged.images[child_image.image_id].status == "live"


# Runs in a child process under a memory cap, so a walk that never ends
# fails the test by running out of memory or time instead of hanging it.
CYCLE_CHECK = """
import resource, sys
cap = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from spock import cli
for command in ("check", "lineage"):
    code = cli.main([command, "--ledger", sys.argv[1], sys.argv[2]])
    print(f"exit {command} {code}", flush=True)
"""


def test_forged_parent_cycle_is_a_broken_lineage(trusted_ledger):
    """A recipe whose signed FROM line names the image built from it, each
    line with a valid digest: replay sees nothing, and the walk up from
    the image must stop and deny rather than loop."""
    ledger, signer, private = trusted_ledger
    image_id = "20181001T120000Z-" + "d" * 64
    content = f"FROM trusted:{image_id}\nRUN echo loop\n".encode()
    rec = RecipeRecord(
        recipe_hash=crypto.digest(content), kind="child", content=content,
        signature=crypto.sign(content, private, signer), signer_id=signer,
        parent_image_id=image_id, registered_at=clock.now_utc(),
    )
    image = ImageRecord(
        image_id=image_id, recipe_hash=rec.recipe_hash, parent_image_id=image_id,
        image_digest=crypto.digest(b"loop"), step_digests=(), signature=rec.signature,
        signer_id=signer,
    )
    image.signature = crypto.sign(image.signed_bytes(), private, signer)
    for record in (rec, image):  # straight into the log, as a forger's editor would
        append_line(ledger.log_path, record, sync=False)
    assert Ledger.open(ledger.root, sync=False).issues == []

    env = dict(os.environ, PYTHONPATH=str(Path(spock.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CYCLE_CHECK, str(ledger.root), image_id],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"missing:lineage broken: cycle through image {image_id}" in proc.stdout
    assert "exit check 10" in proc.stdout
    assert "exit lineage 3" in proc.stdout
    assert "lineage broken: cycle through image" in proc.stderr


def test_open_scans_each_recipe_once_and_check_scans_none(two_roots_and_child, monkeypatch):
    ledger, signer, private, _, _, child = two_roots_and_child
    child_image = builder.build(ledger, child.recipe_hash, MockEngine(), signer, private)
    scans = [0]
    real = recipe.from_line

    def counting(lines):
        scans[0] += 1
        return real(lines)

    monkeypatch.setattr(recipe, "from_line", counting)
    reopened = Ledger.open(ledger.root, sync=False)
    assert scans[0] == len(reopened.recipes) == 3
    scans[0] = 0
    assert rungate.check_runnable(reopened, child_image.image_id).allowed
    assert reopened.validate_all().ok
    assert scans[0] == 0


def test_forged_kind_of_root_fails_kind_parent(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    _rewrite_recipe_line(ledger, rec.recipe_hash, kind="child")

    forged = Ledger.open(ledger.root, sync=False)
    failed = [(e.ref, e.check) for e in forged.validate_all().failures()]
    assert failed == [(f"recipe:{rec.recipe_hash}", "kind-parent")]
    decision = rungate.check_runnable(forged, image.image_id)
    assert decision.reasons == (f"signature-invalid:recipe:{rec.recipe_hash}",)


@pytest.mark.parametrize("content", [b"\xff\xfe not utf-8\n", b"RUN echo no base\n"])
def test_unparsable_content_fails_kind_parent_without_raising(trusted_ledger, content):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    _rewrite_recipe_line(ledger, rec.recipe_hash, content=crypto.encode_text(content))

    forged = Ledger.open(ledger.root, sync=False)
    failed = {e.check for e in forged.validate_all().failures()}
    assert {"content-hash", "kind-parent", "signature"} <= failed
    assert rungate.check_runnable(forged, image.image_id).verdict == "deny"


def test_unknown_signer_gives_missing_entity(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    _rewrite_recipe_line(ledger, rec.recipe_hash, signer_id="mallory")

    forged = Ledger.open(ledger.root, sync=False)
    problems = record_problems(forged, forged.get_recipe(rec.recipe_hash))
    assert problems == [Problem("missing", "entity:mallory")]
    decision = rungate.check_runnable(forged, image.image_id)
    assert decision.reasons == ("missing:entity:mallory",)


@pytest.fixture
def counted_verifies(monkeypatch):
    """Counts the Ed25519 verifies actually made: ``[count]``."""
    calls = [0]
    real = spock.crypto.verify

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(spock.crypto, "verify", counting)
    return calls


def test_verify_counts_per_caller(trusted_ledger, counted_verifies):
    ledger, signer, private = trusted_ledger
    calls = counted_verifies
    engine = MockEngine()
    parent = None
    for depth in range(1, 5):
        calls[0] = 0
        if parent is None:
            rec = recipe.register_root(ledger, f"FROM alpine\nRUN echo {depth}\n", signer, private)
        else:
            rec = recipe.register_child(
                ledger, f"FROM trusted:{parent.image_id}\nRUN echo {depth}\n", signer, private
            )
        # the write of the new recipe verifies it; the parent's path was
        # verified when each of its records was written on this handle
        assert calls[0] == 1
        calls[0] = 0
        parent = builder.build(ledger, rec.recipe_hash, engine, signer, private)
        # the two precondition passes verify nothing, and the write of the
        # new image verifies it once
        assert calls[0] == 1
        calls[0] = 0
        assert rungate.check_runnable(ledger, parent.image_id).allowed
        assert calls[0] == 0
        calls[0] = 0
        assert rungate.check_runnable(ledger, parent.image_id).allowed
        assert calls[0] == 0
    calls[0] = 0
    assert ledger.validate_all().ok
    assert calls[0] == 0


def test_memo_keeps_no_verdict_past_remove_or_distrust(
    trusted_ledger, second_keypair, counted_verifies
):
    ledger, alice, alice_key = trusted_ledger
    bob, bob_key = "bob", second_keypair[1]
    ledger.add_entity(bob, second_keypair[0])
    _, alice_image = register_and_build(ledger, ROOT_TEXT, alice, alice_key)
    _, bob_image = register_and_build(ledger, "FROM debian:12\nRUN echo b\n", bob, bob_key)
    for image in (alice_image, bob_image):
        assert rungate.check_runnable(ledger, image.image_id).allowed
    counted_verifies[0] = 0
    for image in (alice_image, bob_image):
        assert rungate.check_runnable(ledger, image.image_id).allowed
    assert counted_verifies[0] == 0  # every verify above hit the memo

    revocation.remove(ledger, bob_image.image_id, "bad build")
    decision = rungate.check_runnable(ledger, bob_image.image_id)
    assert decision.verdict == "deny"
    assert decision.reasons == (f"purged:image:{bob_image.image_id}",)

    revocation.distrust(ledger, alice, "key leaked")
    decision = rungate.check_runnable(ledger, alice_image.image_id)
    assert decision.verdict == "deny"
    assert f"untrusted-signer:{alice}" in decision.reasons
    assert counted_verifies[0] == 0


def test_ledger_verify_rejects_a_flipped_signature_and_another_key(
    trusted_ledger, second_keypair
):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    key = ledger.get_entity(signer).public_key
    assert ledger.verify(rec.content, rec.signature, key)
    flipped = bytearray(rec.signature.value)
    flipped[0] ^= 0x01
    forged = dataclasses.replace(rec.signature, value=bytes(flipped))
    assert not ledger.verify(rec.content, forged, key)
    assert not ledger.verify(rec.content, rec.signature, second_keypair[0])
    assert not ledger.verify(rec.content + b"\n", rec.signature, key)
    assert ledger.verify(rec.content, rec.signature, key)


def _verdicts(ledger: Ledger, image_ids: list[str]) -> dict:
    out = {}
    for image_id in image_ids:
        decision = rungate.check_runnable(ledger, image_id)
        out[image_id] = (decision.verdict, decision.reasons)
    return out


def test_warm_handle_answers_as_a_fresh_open(two_roots_and_child, second_keypair):
    ledger, alice, alice_key, image_a, image_b, child = two_roots_and_child
    child_image = builder.build(ledger, child.recipe_hash, MockEngine(), alice, alice_key)
    ledger.add_entity("bob", second_keypair[0])
    _, bob_image = register_and_build(
        ledger, "FROM ubuntu:24.04\nRUN echo bob\n", "bob", second_keypair[1]
    )
    bob_child = recipe.register_child(
        ledger, f"FROM trusted:{bob_image.image_id}\nRUN echo alice\n", alice, alice_key
    )
    bob_child_image = builder.build(ledger, bob_child.recipe_hash, MockEngine(), alice, alice_key)
    ids = [image_a.image_id, image_b.image_id, child_image.image_id,
           bob_image.image_id, bob_child_image.image_id, "20181001T120000Z-" + "c" * 64]

    warm = _verdicts(ledger, ids)
    assert [verdict for verdict, _ in warm.values()] == ["allow"] * 5 + ["deny"]
    assert _verdicts(ledger, ids) == warm == _verdicts(Ledger.open(ledger.root, sync=False), ids)

    revocation.remove(ledger, image_a.image_id, "bad base")
    after_remove = _verdicts(ledger, ids)
    assert after_remove != warm
    assert after_remove == _verdicts(Ledger.open(ledger.root, sync=False), ids)

    revocation.distrust(ledger, "bob", "key leaked")
    after_distrust = _verdicts(ledger, ids)
    assert after_distrust != after_remove
    assert after_distrust == _verdicts(Ledger.open(ledger.root, sync=False), ids)

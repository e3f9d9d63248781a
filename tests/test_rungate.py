from __future__ import annotations

import random

import pytest

from spock import Ledger, MockEngine, builder, recipe, revocation, rungate
from spock.errors import SpawnError
from tests.conftest import ROOT_TEXT, forge_line, register_and_build


def test_fresh_root_image_allowed(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    decision = rungate.check_runnable(ledger, image.image_id)
    assert decision.verdict == "allow"
    assert decision.reasons == ()


def test_unknown_image_denied_not_error(trusted_ledger):
    ledger, _, _ = trusted_ledger
    ghost = "20181001T120000Z-" + "c" * 64
    decision = rungate.check_runnable(ledger, ghost)
    assert decision.verdict == "deny"
    assert decision.reasons == (f"unknown-image:{ghost}",)


def test_removed_ancestor_denies_and_names_it(fig_tree):
    ledger = fig_tree["ledger"]
    leaf_image = fig_tree["leaf_image"]
    assert rungate.check_runnable(ledger, leaf_image.image_id).allowed
    revocation.remove(ledger, fig_tree["mid"].recipe_hash, "ancestor bad")
    decision = rungate.check_runnable(ledger, leaf_image.image_id)
    assert decision.verdict == "deny"
    assert any(fig_tree["mid"].recipe_hash in r and r.startswith("purged:") for r in decision.reasons)


def test_distrusted_signer_denies(trusted_ledger, second_keypair):
    ledger, alice, alice_key = trusted_ledger
    ledger.add_entity("bob", second_keypair[0])
    _, image = register_and_build(ledger, ROOT_TEXT, alice, alice_key)
    # distrust must deny even when the records were not purged with it,
    # so forge the distrust event alone
    from datetime import datetime, timezone

    from spock.records import LedgerEvent

    forge_line(
        ledger,
        LedgerEvent(
            event="distrust",
            at=datetime(2026, 1, 1, tzinfo=timezone.utc),
            data={"entity_id": alice, "reason": "x", "bundle_id": "",
                  "purged_recipes": [], "purged_images": []},
        ),
    )
    decision = rungate.check_runnable(ledger, image.image_id)
    assert decision.verdict == "deny"
    assert any(r == f"untrusted-signer:{alice}" for r in decision.reasons)


def test_tampered_signature_denies_with_signature_invalid(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    raw = ledger.log_path.read_bytes()
    lines = raw.split(b"\n")
    flipped = bytearray(lines[3])  # image record line
    flipped[150] ^= 0x01
    lines[3] = bytes(flipped)
    ledger.log_path.write_bytes(b"\n".join(lines))
    reopened = Ledger.open(ledger.root, sync=False)
    decision = rungate.check_runnable(reopened, image.image_id)
    assert decision.verdict == "deny"
    assert any(r.startswith("signature-invalid:") for r in decision.reasons)


def test_decision_appended_to_audit_history(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    rungate.check_runnable(ledger, image.image_id)
    rungate.check_runnable(ledger, "20181001T120000Z-" + "d" * 64)
    admissions, issues = ledger.read_audit()
    assert issues == []
    assert [e.data["verdict"] for e in admissions] == ["allow", "deny"]


def test_check_is_read_only_except_audit_event(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    log_before = ledger.log_path.read_bytes()
    rungate.check_runnable(ledger, image.image_id)
    assert ledger.log_path.read_bytes() == log_before
    assert len(ledger.read_audit()[0]) == 1
    assert ledger.get_image(image.image_id).status == "live"
    assert ledger.get_recipe(rec.recipe_hash).status == "live"


def test_allow_implies_lineage_validation_passes(fig_tree):
    ledger = fig_tree["ledger"]
    decision = rungate.check_runnable(ledger, fig_tree["leaf_image"].image_id)
    assert decision.allowed
    report = ledger.validate_all()
    lineage_refs = {
        f"recipe:{fig_tree[k].recipe_hash}" for k in ("root", "mid", "leaf")
    } | {f"image:{fig_tree[k].image_id}" for k in ("root_image", "mid_image", "leaf_image")}
    assert not [e for e in report.failures() if e.ref in lineage_refs]


def test_monotone_denial_under_random_interleavings(tmp_path, keypair):
    """Once any lineage element is purged or its signer distrusted, the
    image can never be allowed again."""
    rng = random.Random(99)
    public, private = keypair
    for trial in range(25):
        ledger = Ledger.init(tmp_path / f"mono-{trial}", sync=False)
        ledger.add_entity("alice", public)
        engine = MockEngine()
        rec, image = register_and_build(ledger, ROOT_TEXT, "alice", private)
        images = [image]
        for i in range(rng.randrange(1, 4)):
            child = recipe.register_child(
                ledger, f"FROM trusted:{rng.choice(images).image_id}\nRUN echo {i}\n",
                "alice", private,
            )
            images.append(builder.build(ledger, child.recipe_hash, engine, "alice", private))
        target = images[-1].image_id
        assert rungate.check_runnable(ledger, target).allowed
        ops = ["remove", "check", "check", "distrust", "check"]
        rng.shuffle(ops)
        denied = False
        for op in ops:
            if op == "remove" and ledger.get_image(images[0].image_id).status == "live":
                revocation.remove(ledger, images[0].image_id, "revoked")
            elif op == "distrust" and ledger.get_entity("alice").status == "trusted":
                revocation.distrust(ledger, "alice", "distrusted")
            decision = rungate.check_runnable(ledger, target)
            if denied:
                assert not decision.allowed
            denied = denied or not decision.allowed
        assert not rungate.check_runnable(ledger, target).allowed
        ledger.close()


# ----------------------------------------------------------------------
# run()


def test_run_denied_spawns_nothing(trusted_ledger, tmp_path):
    ledger, _, _ = trusted_ledger
    marker = tmp_path / "ran"
    outcome = rungate.run(
        ledger, "20181001T120000Z-" + "e" * 64, f"touch {marker}"
    )
    assert not outcome.spawned
    assert outcome.decision.verdict == "deny"
    assert not marker.exists()


def test_run_allowed_exit_zero(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    outcome = rungate.run(ledger, image.image_id, "true")
    assert outcome.spawned
    assert outcome.exit_status == 0


def test_run_allowed_nonzero_exit_propagated(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    outcome = rungate.run(ledger, image.image_id, "false")
    assert outcome.spawned
    assert outcome.exit_status != 0
    outcome = rungate.run(ledger, image.image_id, "sh -c 'exit 7'")
    assert outcome.exit_status == 7


def test_run_substitutes_image_reference(trusted_ledger, tmp_path):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    out = tmp_path / "cmd.txt"
    outcome = rungate.run(ledger, image.image_id, f"sh -c 'echo $1 > {out}' _ {{image}}")
    assert outcome.exit_status == 0
    assert out.read_text().strip() == image.image_id


def test_run_spawn_failure_after_allow(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    with pytest.raises(SpawnError):
        rungate.run(ledger, image.image_id, "/definitely/not/a/binary {image}")

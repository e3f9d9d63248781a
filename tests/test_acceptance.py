"""Acceptance suite: one test per criterion, each printing a pass line
and holding to its stated wall-clock budget (MockEngine only; a real
container engine is exercised by the optional gated test at the end).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time

import jsonschema
import pytest

from spock import (
    Ledger,
    MockEngine,
    builder,
    cli,
    crypto,
    recipe,
    revocation,
    rungate,
)
from spock.errors import (
    AlreadyRegisteredError,
    ParentRejectedError,
    PurgedError,
    RebuildDeniedError,
    SpockError,
    UntrustedSignerError,
)
from spock.records import LedgerEvent
from tests import golden_session
from tests.conftest import FIXTURES, FakeClock, craft_text
from tests.test_revocation import live_sets, oracle_closure


def _report(n: int, budget: float, elapsed: float, detail: str) -> None:
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"{status}: criterion {n} ({detail}) in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def _build_fig_tree(tmp_path, keypair, sync=True):
    ledger = Ledger.init(tmp_path / "ledger", sync=sync)
    public, private = keypair
    ledger.add_entity("alice", public)
    engine = MockEngine(seed="fig")
    taken: set[str] = set()
    nodes = {}
    root_text = craft_text("FROM alpine:3.18\nRUN echo base\n", "5", taken)
    nodes["root"] = recipe.register_root(ledger, root_text, "alice", private)
    taken.add(nodes["root"].recipe_hash[0])
    nodes["root_image"] = builder.build(ledger, nodes["root"].recipe_hash, engine, "alice", private)
    mid_text = craft_text(f"FROM trusted:{nodes['root_image'].image_id}\nRUN echo mid\n", "3", taken)
    nodes["mid"] = recipe.register_child(ledger, mid_text, "alice", private)
    taken.add(nodes["mid"].recipe_hash[0])
    nodes["mid_image"] = builder.build(ledger, nodes["mid"].recipe_hash, engine, "alice", private)
    leaf_text = craft_text(f"FROM trusted:{nodes['mid_image'].image_id}\nRUN echo leaf\n", "1", taken)
    nodes["leaf"] = recipe.register_child(ledger, leaf_text, "alice", private)
    nodes["leaf_image"] = builder.build(ledger, nodes["leaf"].recipe_hash, engine, "alice", private)
    return ledger, private, nodes


def test_criterion_1_fig_tree_lineage(tmp_path, keypair, capsys):
    t0 = time.monotonic()
    ledger, _, nodes = _build_fig_tree(tmp_path, keypair)
    code = cli.main(["lineage", "1", "--ledger", str(ledger.root)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "5 -> 3 -> 1\n"
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(1, 1.0, elapsed, "lineage of 1 prints 5 -> 3 -> 1")


def test_criterion_2_cascade_completeness(tmp_path, keypair, capsys):
    t0 = time.monotonic()
    ledger, private, nodes = _build_fig_tree(tmp_path, keypair)
    recipes_before, images_before = live_sets(ledger)

    bundle = revocation.remove(ledger, nodes["root"].recipe_hash, "root compromised")

    # every node purged
    assert all(r.status == "purged" for r in ledger.recipes.values())
    assert all(i.status == "purged" for i in ledger.images.values())
    # conservation: pre-live = post-live (disjoint union) bundle contents
    recipes_after, images_after = live_sets(ledger)
    bundle_recipes = {r.recipe_hash for r in bundle.removed_recipes}
    bundle_images = {i.image_id for i in bundle.removed_images}
    assert recipes_after == set() and images_after == set()
    assert bundle_recipes == recipes_before and bundle_images == images_before
    assert len(bundle.removed_recipes) == len(recipes_before)
    assert len(bundle.removed_images) == len(images_before)

    # every purged hash is now refused by both build and registration,
    # library level and CLI level (exit 5): PURGED, except that a child's
    # registration is refused first for its purged parent, PARENT_REJECTED
    key_path = tmp_path / "alice.key"
    crypto.write_private_key(key_path, private)
    ledger_arg = ["--ledger", str(ledger.root), "--signer", "alice", "--key", str(key_path)]
    for rec in bundle.removed_recipes:
        with pytest.raises(PurgedError):
            builder.build(ledger, rec.recipe_hash, MockEngine(), "alice", private)
        register = recipe.register_root if rec.kind == "root" else recipe.register_child
        refusal = PurgedError if rec.kind == "root" else ParentRejectedError
        with pytest.raises(refusal):
            register(ledger, rec.text, "alice", private)
        code = cli.main(["build", rec.recipe_hash] + ledger_arg)
        assert code == 5
        assert "PURGED" in capsys.readouterr().err
        recipe_file = tmp_path / "resubmit.recipe"
        recipe_file.write_text(rec.text)
        command = "root" if rec.kind == "root" else "child"
        code = cli.main([command, str(recipe_file)] + ledger_arg)
        assert code == 5
        assert f"error: {refusal.token}:" in capsys.readouterr().err
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(2, 1.0, elapsed, "root removal cascades with exact conservation")


def test_criterion_3_single_live_image_property(tmp_path, keypair, second_keypair, capsys):
    t0 = time.monotonic()
    public, private = keypair
    bob_public, bob_private = second_keypair
    keys = {"alice": private, "bob": bob_private}
    rng = random.Random(31337)
    sequences = 1000
    removes_checked = 0

    for seq in range(sequences):
        ledger = Ledger.init(tmp_path / f"seq-{seq}", sync=False)
        ledger.add_entity("alice", public)
        have_bob = rng.random() < 0.5
        if have_bob:
            ledger.add_entity("bob", bob_public)
        engine = MockEngine()
        images: list = []
        for step in range(rng.randrange(4, 9)):
            signer = "bob" if have_bob and rng.random() < 0.3 else "alice"
            op = rng.random()
            try:
                if op < 0.30 or (op < 0.55 and not images):
                    recipe.register_root(
                        ledger, f"FROM base{seq}-{step}\nRUN echo {step}\n", signer, keys[signer]
                    )
                elif op < 0.55:
                    parent = rng.choice(images)
                    recipe.register_child(
                        ledger,
                        f"FROM trusted:{parent.image_id}\nRUN echo {step}\n",
                        signer,
                        keys[signer],
                    )
                elif op < 0.85:
                    live = [h for h, r in ledger.recipes.items() if r.status == "live"]
                    if live:
                        target = rng.choice(live)
                        images.append(
                            builder.build(ledger, target, engine, signer, keys[signer])
                        )
                elif op < 0.95:
                    candidates = [h for h, r in ledger.recipes.items() if r.status == "live"]
                    candidates += [i for i, m in ledger.images.items() if m.status == "live"]
                    if candidates:
                        target = rng.choice(candidates)
                        node_type = "recipe" if target in ledger.recipes else "image"
                        want = oracle_closure(ledger, node_type, target)
                        pre_live = live_sets(ledger)
                        bundle = revocation.remove(ledger, target, "sequence removal")
                        got = (
                            {r.recipe_hash for r in bundle.removed_recipes},
                            {i.image_id for i in bundle.removed_images},
                        )
                        assert got == want, f"closure mismatch in seq {seq}"
                        post_live = live_sets(ledger)
                        assert post_live[0] | got[0] == pre_live[0]
                        assert post_live[1] | got[1] == pre_live[1]
                        removes_checked += 1
                elif have_bob and ledger.get_entity("bob").status == "trusted":
                    revocation.distrust(ledger, "bob", "sequence distrust")
            except (
                AlreadyRegisteredError,
                ParentRejectedError,
                PurgedError,
                RebuildDeniedError,
                UntrustedSignerError,
            ):
                pass  # legal policy refusals inside random sequences
            # invariants after every operation
            live_per_recipe: dict[str, int] = {}
            for img in ledger.images.values():
                if img.status == "live":
                    live_per_recipe[img.recipe_hash] = live_per_recipe.get(img.recipe_hash, 0) + 1
            assert all(n <= 1 for n in live_per_recipe.values()), f"two live images in seq {seq}"
            problems = ledger.validate_all().failures()
            assert problems == [], f"integrity broken in seq {seq}: {problems}"
        ledger.close()

    assert removes_checked >= 100  # the op mix must actually exercise removal
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(
            3, 30.0, elapsed,
            f"{sequences} random sequences, {removes_checked} removals closure-checked",
        )


def test_criterion_4_tamper_detection(tmp_path, keypair, capsys):
    t0 = time.monotonic()
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger", sync=False)
    ledger.add_entity("alice", public)
    rec = recipe.register_root(ledger, "FROM alpine\nRUN echo x\n", "alice", private)
    image = builder.build(ledger, rec.recipe_hash, MockEngine(), "alice", private)
    builder.diff_rebuild(ledger, image.image_id, MockEngine())
    ledger.close()

    log_path = tmp_path / "ledger" / "ledger.log"
    pristine = log_path.read_bytes()
    lines = pristine.split(b"\n")
    # line 1 is the schema record (plumbing); the spec'd record types are
    # entity(2), recipe(3), image(4), event(5)
    flips = 0
    fd = os.open(log_path, os.O_WRONLY)
    for line_no in (2, 3, 4, 5):
        line = lines[line_no - 1]
        start = sum(len(earlier) + 1 for earlier in lines[: line_no - 1])
        for offset in range(len(line)):
            # flip one byte in place, and put it back after the checks
            os.pwrite(fd, bytes([line[offset] ^ 0x01]), start + offset)

            tampered = Ledger.open(tmp_path / "ledger", sync=False)
            report = tampered.validate_all()
            assert not report.ok
            tamper_refs = {
                e.ref for e in report.failures() if e.check in ("record-digest", "parse")
            }
            assert tamper_refs == {f"line:{line_no}"}, (
                f"line {line_no} offset {offset}: flagged {tamper_refs}"
            )
            decision = rungate.check_runnable(tampered, image.image_id)
            assert decision.verdict == "deny"
            assert any(r.startswith("signature-invalid:") for r in decision.reasons)
            tampered.close()
            os.pwrite(fd, line[offset : offset + 1], start + offset)
            flips += 1
    os.close(fd)
    assert log_path.read_bytes() == pristine
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(4, 5.0, elapsed, f"{flips} single-byte flips all flagged and denied")


def test_criterion_5_rebuild_policy(tmp_path, keypair, capsys):
    t0 = time.monotonic()
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger", sync=False)
    ledger.add_entity("alice", public)
    rec = recipe.register_root(ledger, "FROM alpine\nRUN echo x\n", "alice", private)
    first = builder.build(ledger, rec.recipe_hash, MockEngine(), "alice", private)
    with pytest.raises(RebuildDeniedError):
        builder.build(ledger, rec.recipe_hash, MockEngine(), "alice", private)
    revocation.remove(ledger, first.image_id, "invalidate for rebuild")
    second = builder.build(ledger, rec.recipe_hash, MockEngine(), "alice", private)
    assert second.image_id != first.image_id
    assert second.status == "live"
    assert ledger.get_image(first.image_id).status == "purged"
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(5, 1.0, elapsed, "rebuild denied until invalidated, new distinct id")


def test_criterion_6_difference_rebuild(tmp_path, keypair, capsys):
    t0 = time.monotonic()
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger", sync=False)
    ledger.add_entity("alice", public)
    rec = recipe.register_root(ledger, "FROM alpine\nRUN echo x\nRUN echo y\n", "alice", private)
    image = builder.build(ledger, rec.recipe_hash, MockEngine(seed="orig"), "alice", private)

    statuses_before = (
        {h: r.status for h, r in ledger.recipes.items()},
        {i: m.status for i, m in ledger.images.items()},
    )
    same = builder.diff_rebuild(ledger, image.image_id, MockEngine(seed="orig"))
    assert same.verdict == "identical" and same.digest_match and not same.step_diffs
    drifted = builder.diff_rebuild(ledger, image.image_id, MockEngine(seed="perturbed"))
    assert drifted.verdict == "divergent"
    assert len(drifted.step_diffs) >= 1
    statuses_after = (
        {h: r.status for h, r in ledger.recipes.items()},
        {i: m.status for i, m in ledger.images.items()},
    )
    assert statuses_before == statuses_after
    assert len([e for e in ledger.events if e.event == "diff_report"]) == 2
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(6, 1.0, elapsed, "identical vs divergent verdicts, statuses untouched")


def test_criterion_7_durability_and_atomicity(tmp_path, keypair, capsys, monkeypatch):
    t0 = time.monotonic()
    ledger, private, nodes = _build_fig_tree(tmp_path, keypair)
    pre_live = live_sets(ledger)
    pre_raw = ledger.log_path.read_bytes()

    # crash injected between bundle write and status commit
    real_append = Ledger.append

    def crashing_append(self, record):
        if isinstance(record, LedgerEvent) and record.event == "remove":
            raise SpockError("injected crash")
        return real_append(self, record)

    monkeypatch.setattr(Ledger, "append", crashing_append)
    with pytest.raises(SpockError):
        revocation.remove(ledger, nodes["root"].recipe_hash, "crash mid-remove")
    monkeypatch.setattr(Ledger, "append", real_append)

    recovered = Ledger.open(ledger.root)
    assert live_sets(recovered) == pre_live  # fully pre-remove
    assert recovered.validate_all().ok
    assert recovered.log_path.read_bytes() == pre_raw

    # the remove then completes; a torn final line also recovers cleanly
    revocation.remove(recovered, nodes["root"].recipe_hash, "crash mid-remove")
    post_raw = recovered.log_path.read_bytes()
    torn = post_raw[: len(post_raw) - 40]
    recovered.log_path.write_bytes(torn)
    re_recovered = Ledger.open(ledger.root)
    assert live_sets(re_recovered) == pre_live
    assert re_recovered.validate_all().ok

    # and with the intact log, the state is fully post-remove
    recovered.log_path.write_bytes(post_raw)
    final = Ledger.open(ledger.root)
    assert live_sets(final) == (set(), set())
    assert final.validate_all().ok

    # close/reopen round-trips every record bit-exactly
    from spock.records import record_bytes

    def snapshot(led):
        out = {f"recipe:{h}": record_bytes(r) for h, r in led.recipes.items()}
        out |= {f"image:{i}": record_bytes(r) for i, r in led.images.items()}
        out |= {f"entity:{e}": record_bytes(r) for e, r in led.entities.items()}
        return out

    assert snapshot(final) == snapshot(Ledger.open(ledger.root))
    assert Ledger.open(ledger.root).log_path.read_bytes() == post_raw
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(7, 10.0, elapsed, "crash recovery is all-or-nothing, reopen bit-exact")


def test_criterion_8_golden_session(tmp_path, keypair, capsys, monkeypatch):
    t0 = time.monotonic()
    for var in ("SPOCK_LEDGER", "SPOCK_SIGNER", "SPOCK_KEY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("SPOCK_LEDGER", "ledger")
    monkeypatch.setenv("SPOCK_SIGNER", "alice")
    monkeypatch.setenv("SPOCK_KEY", str(FIXTURES / "golden_signer.key"))

    import spock.clock

    # human transcript, byte-stable against the checked-in golden file
    human_dir = tmp_path / "human"
    human_dir.mkdir()
    monkeypatch.chdir(human_dir)
    monkeypatch.setattr(spock.clock, "now_utc", FakeClock("2026-01-02T03:04:05Z"))
    results = golden_session.run_session(human_dir, capsys)
    assert [code for _, _, code in results] == [0] * len(results)
    got = golden_session.transcript(results)
    want = golden_session.GOLDEN.read_text()
    assert got == want

    # the same session in JSON mode is schema-valid throughout
    json_dir = tmp_path / "json"
    json_dir.mkdir()
    monkeypatch.chdir(json_dir)
    monkeypatch.setattr(spock.clock, "now_utc", FakeClock("2026-01-02T03:04:05Z"))
    results = golden_session.run_session(json_dir, capsys, json_mode=True)
    assert [code for _, _, code in results] == [0] * len(results)
    for (argv, out, _), schema in zip(results, golden_session.SESSION_SCHEMAS):
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(8, 2.0, elapsed, "golden transcript byte-stable, JSON schema-valid")


@pytest.mark.skipif(shutil.which("docker") is None, reason="no container engine available")
def test_exec_engine_against_real_container_engine(tmp_path, keypair, capsys):
    """Optional integration coverage for ExecEngine with a real builder."""
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger")
    ledger.add_entity("alice", public)
    rec = recipe.register_root(ledger, "FROM alpine:3.18\nRUN echo ok\n", "alice", private)
    engine = builder.ExecEngine("docker build -q -f {recipe} -t {tag} {context}")
    image = builder.build(ledger, rec.recipe_hash, engine, "alice", private)
    assert crypto.is_digest(image.image_digest)
    assert rungate.check_runnable(ledger, image.image_id).allowed

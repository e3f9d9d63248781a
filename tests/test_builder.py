from __future__ import annotations

import hashlib
import re
import shlex
import sys

import pytest

from spock import builder, recipe, revocation
from spock.builder import ExecEngine, MockEngine
from spock.errors import (
    EngineError,
    NotFoundError,
    PurgedError,
    RebuildDeniedError,
    UntrustedSignerError,
)
from tests.conftest import ROOT_TEXT, register_and_build


def test_mock_build_deterministic():
    a = builder.mock_build(ROOT_TEXT, None, seed="s")
    b = builder.mock_build(ROOT_TEXT, None, seed="s")
    assert a == b


def test_mock_build_seed_changes_digest():
    a, _ = builder.mock_build(ROOT_TEXT, None, seed="a")
    b, _ = builder.mock_build(ROOT_TEXT, None, seed="b")
    assert a != b


def test_mock_build_parent_changes_digest():
    a, _ = builder.mock_build(ROOT_TEXT, None, seed="s")
    b, _ = builder.mock_build(ROOT_TEXT, "f" * 64, seed="s")
    assert a != b


def test_mock_digest_formula_matches_independent_recomputation():
    # recompute the advertised formula with hashlib alone
    text = "FROM alpine:3.18\nRUN echo hello\nRUN echo world\n"
    seed = "oracle"
    image_digest, step_digests = builder.mock_build(text, None, seed=seed)
    expected_image = hashlib.sha256(
        text.encode() + b"\x00" + b"alpine:3.18" + b"\x00" + seed.encode()
    ).hexdigest()
    assert image_digest == expected_image
    steps = ["RUN echo hello", "RUN echo world"]
    expected_steps = tuple(
        hashlib.sha256(
            step.encode() + b"\x00" + str(i).encode() + b"\x00" + seed.encode()
        ).hexdigest()
        for i, step in enumerate(steps)
    )
    assert step_digests == expected_steps


def test_mock_digest_formula_child_uses_parent_digest():
    parent_digest = "c" * 64
    text = "FROM trusted:20181001T120000Z-" + "a" * 64 + "\nRUN x\n"
    image_digest, _ = builder.mock_build(text, parent_digest, seed="s")
    expected = hashlib.sha256(
        text.encode() + b"\x00" + parent_digest.encode() + b"\x00" + b"s"
    ).hexdigest()
    assert image_digest == expected


def test_build_live_root_recipe(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    image = builder.build(ledger, rec.recipe_hash, MockEngine(), signer, private)
    assert image.image_id.endswith(rec.recipe_hash)
    assert image.status == "live"
    assert ledger.live_image_for(rec.recipe_hash) is not None


def test_build_again_rebuild_denied(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, _ = register_and_build(ledger, ROOT_TEXT, signer, private)
    with pytest.raises(RebuildDeniedError):
        builder.build(ledger, rec.recipe_hash, MockEngine(), signer, private)


def test_invalidate_then_rebuild_gets_distinct_id(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, first = register_and_build(ledger, ROOT_TEXT, signer, private)
    revocation.remove(ledger, first.image_id, "rebuild wanted")
    second = builder.build(ledger, rec.recipe_hash, MockEngine(), signer, private)
    assert second.image_id != first.image_id
    assert second.status == "live"
    assert ledger.get_image(first.image_id).status == "purged"


def test_build_unknown_recipe(trusted_ledger):
    ledger, signer, private = trusted_ledger
    with pytest.raises(NotFoundError):
        builder.build(ledger, "f" * 64, MockEngine(), signer, private)


def test_build_purged_recipe(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    revocation.remove(ledger, rec.recipe_hash, "bad")
    with pytest.raises(PurgedError):
        builder.build(ledger, rec.recipe_hash, MockEngine(), signer, private)


def test_build_untrusted_signer(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    with pytest.raises(UntrustedSignerError):
        builder.build(ledger, rec.recipe_hash, MockEngine(), "nobody", private)


class FailingEngine:
    name = "failing"

    def build(self, parsed, parent_digest, tag):
        raise EngineError("engine exploded")


def test_engine_failure_stores_nothing(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    before = ledger.log_path.read_bytes()
    with pytest.raises(EngineError):
        builder.build(ledger, rec.recipe_hash, FailingEngine(), signer, private)
    assert ledger.log_path.read_bytes() == before
    assert ledger.live_image_for(rec.recipe_hash) is None


def test_child_image_strictly_later_than_parent(trusted_ledger, fake_clock):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    child = recipe.register_child(
        ledger, f"FROM trusted:{image.image_id}\nRUN x\n", signer, private
    )
    # clock frozen: the allocator must bump the child past its parent
    child_image = builder.build(ledger, child.recipe_hash, MockEngine(), signer, private)
    assert child_image.built_at > image.built_at


def test_rebuild_same_second_still_distinct(trusted_ledger, fake_clock):
    ledger, signer, private = trusted_ledger
    rec, first = register_and_build(ledger, ROOT_TEXT, signer, private)
    revocation.remove(ledger, first.image_id, "again")
    second = builder.build(ledger, rec.recipe_hash, MockEngine(), signer, private)
    assert second.image_id != first.image_id


def test_image_signature_verifies(trusted_ledger):
    ledger, signer, private = trusted_ledger
    from spock import crypto

    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    key = ledger.get_entity(signer).public_key
    assert crypto.verify(image.signed_bytes(), image.signature, key)


# ----------------------------------------------------------------------
# difference rebuilds


def test_diff_rebuild_identical_with_original_seed(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private, seed="orig")
    report = builder.diff_rebuild(ledger, image.image_id, MockEngine(seed="orig"))
    assert report.verdict == "identical"
    assert report.digest_match
    assert report.step_diffs == ()


def test_diff_rebuild_perturbed_seed_divergent(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private, seed="orig")
    report = builder.diff_rebuild(ledger, image.image_id, MockEngine(seed="drift"))
    assert report.verdict == "divergent"
    assert not report.digest_match
    assert len(report.step_diffs) >= 1
    for diff in report.step_diffs:
        assert diff.trusted != diff.rebuilt


def test_diff_rebuild_changes_no_statuses(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec, image = register_and_build(ledger, ROOT_TEXT, signer, private, seed="orig")
    live_before = {i.image_id for i in ledger.list_images(status="live")}
    builder.diff_rebuild(ledger, image.image_id, MockEngine(seed="drift"))
    assert {i.image_id for i in ledger.list_images(status="live")} == live_before
    assert ledger.get_recipe(rec.recipe_hash).status == "live"


def test_diff_rebuild_appends_audit_event(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    builder.diff_rebuild(ledger, image.image_id, MockEngine())
    reports = [e for e in ledger.events if e.event == "diff_report"]
    assert len(reports) == 1
    assert reports[0].data["image_id"] == image.image_id
    assert reports[0].data["verdict"] == "identical"


class RecordingEngine:
    name = "recording"

    def __init__(self):
        self.tags = []
        self.inner = MockEngine()

    def build(self, parsed, parent_digest, tag):
        self.tags.append(tag)
        return self.inner.build(parsed, parent_digest, tag)


def test_diff_rebuild_uses_quarantine_namespace(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    engine = RecordingEngine()
    builder.diff_rebuild(ledger, image.image_id, engine)
    assert engine.tags == [f"spock-quarantine/{image.image_id.lower()}"]


def test_diff_rebuild_requires_live_image(trusted_ledger):
    ledger, signer, private = trusted_ledger
    _, image = register_and_build(ledger, ROOT_TEXT, signer, private)
    revocation.remove(ledger, image.image_id, "gone")
    with pytest.raises(PurgedError):
        builder.diff_rebuild(ledger, image.image_id, MockEngine())
    with pytest.raises(NotFoundError):
        builder.diff_rebuild(ledger, "20181001T120000Z-" + "9" * 64, MockEngine())


# ----------------------------------------------------------------------
# exec engine (driven with stub commands; a real container engine is
# exercised only by the gated integration test in test_acceptance)


def test_exec_engine_parses_digest_from_output():
    engine = ExecEngine("sh -c 'echo built sha256:" + "d" * 64 + "'")
    result = engine.build(recipe.parse(ROOT_TEXT), None, tag="t")
    assert result.image_digest == "d" * 64
    assert result.step_digests == ()


def test_exec_engine_nonzero_exit_is_engine_failure():
    engine = ExecEngine("sh -c 'exit 3'")
    with pytest.raises(EngineError):
        engine.build(recipe.parse(ROOT_TEXT), None, tag="t")


def test_exec_engine_no_digest_is_engine_failure():
    engine = ExecEngine("sh -c 'echo done'")
    with pytest.raises(EngineError):
        engine.build(recipe.parse(ROOT_TEXT), None, tag="t")


def test_exec_engine_receives_recipe_and_tag(tmp_path):
    capture = tmp_path / "argv.txt"
    engine = ExecEngine(
        'sh -c \'cat "$1" > "%s"; echo "$2" >> "%s"; echo sha256:%s\' _ {recipe} {tag}'
        % (capture, capture, "e" * 64)
    )
    result = engine.build(recipe.parse(ROOT_TEXT), None, tag="spock-quarantine/test")
    text = capture.read_text()
    assert ROOT_TEXT in text
    assert "spock-quarantine/test" in text
    assert result.image_digest == "e" * 64


def test_build_with_exec_engine_records_absent_steps(trusted_ledger):
    ledger, signer, private = trusted_ledger
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    engine = ExecEngine("sh -c 'echo sha256:" + "a" * 64 + "'")
    image = builder.build(ledger, rec.recipe_hash, engine, signer, private)
    assert image.step_digests == ()
    # absent step digests: a diff rebuild compares only the image digest
    report = builder.diff_rebuild(ledger, image.image_id, engine)
    assert report.verdict == "identical"


# Docker's reference grammar (distribution/reference) without the optional
# registry host: lower-case path components, then an optional tag.
_PATH_COMPONENT = r"[a-z0-9]+(?:(?:[._]|__|-+)[a-z0-9]+)*"
_DOCKER_REFERENCE = re.compile(
    rf"{_PATH_COMPONENT}(?:/{_PATH_COMPONENT})*(?::\w[\w.-]{{0,127}})?"
)


def test_exec_engine_tags_are_valid_docker_references(trusted_ledger, tmp_path):
    ledger, signer, private = trusted_ledger
    capture = tmp_path / "tags.txt"
    script = (
        "import sys; open(sys.argv[1], 'a').write(sys.argv[2] + '\\n'); "
        "print('sha256:' + 'c' * 64)"
    )
    engine = ExecEngine(
        f"{shlex.quote(sys.executable)} -c {shlex.quote(script)} "
        f"{shlex.quote(str(capture))} {{tag}}"
    )
    rec = recipe.register_root(ledger, ROOT_TEXT, signer, private)
    image = builder.build(ledger, rec.recipe_hash, engine, signer, private)
    builder.diff_rebuild(ledger, image.image_id, engine)
    build_tag, quarantine_tag = capture.read_text().splitlines()
    assert quarantine_tag.startswith("spock-quarantine/")
    for tag in (build_tag, quarantine_tag):
        assert _DOCKER_REFERENCE.fullmatch(tag), tag
        assert len(tag) <= 255

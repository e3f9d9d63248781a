"""One admission rule: ``check``, ``child``, ``build`` and ``diff-rebuild``
refuse exactly the nodes ``provenance.lineage_problems`` denies. And one
write rule: no write of any kind goes into a log that replay found
altered."""

from __future__ import annotations

import random

import pytest

from spock import Ledger, MockEngine, builder, cli, crypto, recipe, revocation, rungate
from spock.errors import ParentRejectedError, SignatureInvalidError, SpockError, TamperError
from spock.provenance import lineage_problems
from tests.conftest import ROOT_TEXT, register_and_build
from tests.test_revocation import _random_forest


def _tamper(log_path, index: int, how: str) -> None:
    """Alter line ``index`` (0-based) of a log: change the first hex digit
    of its digest, or write it twice."""
    lines = log_path.read_bytes().split(b"\n")
    line = lines[index]
    if how == "flip":
        lines[index] = (b"1" if line[:1] == b"0" else b"0") + line[1:]
    else:
        lines.insert(index, line)
    log_path.write_bytes(b"\n".join(lines))


def _snapshot(ledger: Ledger) -> dict:
    """``ledger.log`` and every file under ``archive/``, by path."""
    files = [ledger.log_path, *sorted(p for p in ledger.archive_root.rglob("*") if p.is_file())]
    return {p: p.read_bytes() for p in files}


@pytest.mark.parametrize("how", ["flip", "duplicate"])
def test_tampered_ledger_refuses_every_write(
    tmp_path, keypair, second_keypair, monkeypatch, capsys, how
):
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger", sync=False)
    ledger.add_entity("alice", public)
    _, image = register_and_build(ledger, ROOT_TEXT, "alice", private)
    recipe.register_root(ledger, "FROM busybox\nRUN echo unrelated\n", "alice", private)
    pending = recipe.register_root(ledger, "FROM debian\nRUN echo pending\n", "alice", private)
    doomed = recipe.register_root(ledger, "FROM fedora\nRUN echo doomed\n", "alice", private)
    revocation.remove(ledger, doomed.recipe_hash, "leaves a bundle in archive/")
    _tamper(ledger.log_path, 4, how)  # the unrelated recipe's line
    ledger = Ledger.open(ledger.root, sync=False)
    decision = rungate.check_runnable(ledger, image.image_id)
    assert not decision.allowed
    assert decision.reasons and all(r.startswith("signature-invalid:") for r in decision.reasons)

    before = _snapshot(ledger)
    child_text = f"FROM trusted:{image.image_id}\nRUN echo child\n"
    with pytest.raises(ParentRejectedError, match="signature-invalid:"):
        recipe.register_child(ledger, child_text, "alice", private)
    assert _snapshot(ledger) == before
    with pytest.raises(SignatureInvalidError):
        builder.build(ledger, pending.recipe_hash, MockEngine(), "alice", private)
    assert _snapshot(ledger) == before
    with pytest.raises(SignatureInvalidError):
        builder.diff_rebuild(ledger, image.image_id, MockEngine())
    assert _snapshot(ledger) == before
    # the writes no admission question guards meet the write rule
    for write, args in (
        (recipe.register_root, (ledger, "FROM alpine\nRUN echo new\n", "alice", private)),
        (revocation.remove, (ledger, image.image_id, "on an altered log")),
        (ledger.add_entity, ("bob", second_keypair[0])),
        (revocation.distrust, (ledger, "alice", "on an altered log")),
    ):
        with pytest.raises(TamperError, match="ledger.log was altered"):
            write(*args)
        assert _snapshot(ledger) == before

    for var in ("SPOCK_LEDGER", "SPOCK_SIGNER", "SPOCK_KEY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "xdg"))
    key = tmp_path / "alice.key"
    crypto.write_private_key(key, private)
    crypto.write_public_key(tmp_path / "bob.pub", second_keypair[0])
    child_file = tmp_path / "child.recipe"
    child_file.write_text(child_text)
    root_file = tmp_path / "root.recipe"
    root_file.write_text("FROM alpine\nRUN echo new\n")
    at = ["--ledger", str(ledger.root)]
    signing = [*at, "--signer", "alice", "--key", str(key)]
    capsys.readouterr()
    for argv, code, token in (
        (["child", str(child_file), *signing], 5, "PARENT_REJECTED"),
        (["build", pending.recipe_hash, *signing], 4, "SIGNATURE_INVALID"),
        (["diff-rebuild", image.image_id, *at], 4, "SIGNATURE_INVALID"),
        (["root", str(root_file), *signing], 4, "TAMPER"),
        (["remove", image.image_id, "--reason", "r", *at], 4, "TAMPER"),
        (["trust", "add", "bob", str(tmp_path / "bob.pub"), *at], 4, "TAMPER"),
        (["trust", "distrust", "alice", "--reason", "r", *at], 4, "TAMPER"),
    ):
        assert cli.main(argv) == code, argv
        assert f"error: {token}: " in capsys.readouterr().err
        assert _snapshot(ledger) == before


def _refuses(fn, *args) -> bool:
    try:
        fn(*args)
    except SpockError:
        return True
    return False


def test_check_child_and_diff_rebuild_agree_on_random_forests(tmp_path, keypair):
    _, private = keypair
    rng = random.Random(1212)
    seen = {True: 0, False: 0}
    for trial in range(60):
        ledger = _random_forest(tmp_path, rng, trial, keypair)
        live = [i for i, m in ledger.images.items() if m.status == "live"]
        if live and rng.random() < 0.5:
            revocation.remove(ledger, rng.choice([*live, *ledger.recipes]), "trial")
        if trial % 2:
            n_lines = len(ledger.log_path.read_bytes().splitlines())
            _tamper(ledger.log_path, rng.randrange(1, n_lines), rng.choice(["flip", "duplicate"]))
        ledger = Ledger.open(ledger.root, sync=False)
        for image_id in list(ledger.images):
            allowed = rungate.check_runnable(ledger, image_id).allowed
            assert allowed == (lineage_problems(ledger, image_id) == [])
            child = f"FROM trusted:{image_id}\nRUN echo agree {trial}\n"
            assert allowed == (not _refuses(recipe.register_child, ledger, child, "alice", private))
            assert allowed == (not _refuses(builder.diff_rebuild, ledger, image_id, MockEngine()))
            seen[allowed] += 1
        ledger.close()
    assert seen[True] and seen[False]

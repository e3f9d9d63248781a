"""One admission rule: ``check``, ``child``, ``build`` and ``diff-rebuild``
refuse exactly the nodes ``provenance.lineage_problems`` denies."""

from __future__ import annotations

import random

import pytest

from spock import Ledger, MockEngine, builder, cli, crypto, recipe, revocation, rungate
from spock.errors import ParentRejectedError, SignatureInvalidError, SpockError
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


@pytest.mark.parametrize("how", ["flip", "duplicate"])
def test_tampered_ledger_refuses_child_build_and_diff_rebuild(
    tmp_path, keypair, monkeypatch, capsys, how
):
    public, private = keypair
    ledger = Ledger.init(tmp_path / "ledger", sync=False)
    ledger.add_entity("alice", public)
    _, image = register_and_build(ledger, ROOT_TEXT, "alice", private)
    recipe.register_root(ledger, "FROM busybox\nRUN echo unrelated\n", "alice", private)
    pending = recipe.register_root(ledger, "FROM debian\nRUN echo pending\n", "alice", private)
    _tamper(ledger.log_path, 4, how)  # the unrelated recipe's line
    ledger = Ledger.open(ledger.root, sync=False)
    decision = rungate.check_runnable(ledger, image.image_id)
    assert not decision.allowed
    assert decision.reasons and all(r.startswith("signature-invalid:") for r in decision.reasons)

    log = ledger.log_path.read_bytes()
    child_text = f"FROM trusted:{image.image_id}\nRUN echo child\n"
    with pytest.raises(ParentRejectedError, match="signature-invalid:"):
        recipe.register_child(ledger, child_text, "alice", private)
    assert ledger.log_path.read_bytes() == log
    with pytest.raises(SignatureInvalidError):
        builder.build(ledger, pending.recipe_hash, MockEngine(), "alice", private)
    assert ledger.log_path.read_bytes() == log
    with pytest.raises(SignatureInvalidError):
        builder.diff_rebuild(ledger, image.image_id, MockEngine())
    assert ledger.log_path.read_bytes() == log

    for var in ("SPOCK_LEDGER", "SPOCK_SIGNER", "SPOCK_KEY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "xdg"))
    key = tmp_path / "alice.key"
    crypto.write_private_key(key, private)
    child_file = tmp_path / "child.recipe"
    child_file.write_text(child_text)
    signing = ["--ledger", str(ledger.root), "--signer", "alice", "--key", str(key)]
    capsys.readouterr()
    assert cli.main(["child", str(child_file), *signing]) == 5
    assert "error: PARENT_REJECTED: " in capsys.readouterr().err
    assert cli.main(["build", pending.recipe_hash, *signing]) == 4
    assert "error: SIGNATURE_INVALID: " in capsys.readouterr().err
    assert cli.main(["diff-rebuild", image.image_id, "--ledger", str(ledger.root)]) == 4
    assert "error: SIGNATURE_INVALID: " in capsys.readouterr().err
    assert ledger.log_path.read_bytes() == log


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

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spock import Ledger, cli, crypto
from tests.conftest import MALFORMED_MANIFESTS, ROOT_TEXT, craft_text, file_crafted_bundle


@pytest.fixture
def cli_env(monkeypatch, tmp_path):
    """Isolated working directory with no ambient spock configuration."""
    for var in ("SPOCK_LEDGER", "SPOCK_SIGNER", "SPOCK_KEY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "xdg"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def workspace(cli_env, monkeypatch, capsys):
    """Initialized ledger with signer alice configured via environment."""
    monkeypatch.setenv("SPOCK_LEDGER", "ledger")
    monkeypatch.setenv("SPOCK_SIGNER", "alice")
    monkeypatch.setenv("SPOCK_KEY", "alice.key")
    assert cli.main(["init"]) == 0
    assert cli.main(["keygen"]) == 0
    assert cli.main(["trust", "add", "alice", "alice.key.pub"]) == 0
    Path("base.recipe").write_text(ROOT_TEXT)
    capsys.readouterr()
    return cli_env


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def register_and_build_cli(capsys):
    code, rec = run_json(capsys, ["root", "base.recipe"])
    assert code == 0
    code, image = run_json(capsys, ["build", rec["recipe_hash"]])
    assert code == 0
    return rec, image


def test_init_and_reinit(cli_env, capsys):
    assert cli.main(["init", "--ledger", "ledger"]) == 0
    assert "initialized ledger at ledger" in capsys.readouterr().out
    code = cli.main(["init", "--ledger", "ledger"])
    assert code == 1
    assert "LEDGER_EXISTS" in capsys.readouterr().err


def test_keygen_writes_restricted_key(workspace, capsys):
    code = cli.main(["keygen", "--private", "other.key"])
    assert code == 0
    assert Path("other.key").stat().st_mode & 0o777 == 0o600
    assert Path("other.key.pub").exists()
    # refuses to clobber
    assert cli.main(["keygen", "--private", "other.key"]) == 1


def test_missing_signer_is_config_error(cli_env, capsys):
    cli.main(["init", "--ledger", "ledger"])
    Path("base.recipe").write_text(ROOT_TEXT)
    code = cli.main(["root", "base.recipe", "--ledger", "ledger"])
    assert code == 2
    assert "CONFIG" in capsys.readouterr().err


def test_full_session_exit_codes(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    # rebuild denied -> 5
    assert cli.main(["build", rec["recipe_hash"]]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "REBUILD_DENIED" in err
    # unknown node -> 3
    assert cli.main(["info", "f" * 64]) == 3
    capsys.readouterr()
    # an entity id or a live recipe recorded again -> 4
    assert cli.main(["trust", "add", "alice", "alice.key.pub"]) == 4
    assert "error: DUPLICATE_ENTITY:" in capsys.readouterr().err
    assert cli.main(["root", "base.recipe"]) == 4
    assert "error: ALREADY_REGISTERED:" in capsys.readouterr().err
    # remove, then purged registration -> 5
    assert cli.main(["remove", rec["recipe_hash"], "--reason", "bad"]) == 0
    capsys.readouterr()
    assert cli.main(["root", "base.recipe"]) == 5
    assert "PURGED" in capsys.readouterr().err


def test_child_unknown_image_exit_5_names_image(workspace, capsys):
    ghost = "20181001T120000Z-" + "a" * 64
    Path("bad.recipe").write_text(f"FROM trusted:{ghost}\nRUN x\n")
    code = cli.main(["child", "bad.recipe"])
    assert code == 5
    err = capsys.readouterr().err
    assert "PARENT_REJECTED" in err
    assert ghost in err


def test_recipe_from_stdin(workspace, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(ROOT_TEXT))
    code, rec = run_json(capsys, ["root", "-"])
    assert code == 0
    assert rec["kind"] == "root"


def test_parse_error_exit_5(workspace, capsys):
    Path("broken.recipe").write_text("RUN nothing\n")
    assert cli.main(["root", "broken.recipe"]) == 5
    assert "PARSE" in capsys.readouterr().err


def test_lineage_prefix_form(workspace, capsys, monkeypatch):
    monkeypatch.setenv("SPOCK_LEDGER", "ledger")
    taken: set[str] = set()
    root_text = craft_text("FROM alpine:3.18\nRUN echo base\n", "5", taken)
    Path("r5.recipe").write_text(root_text)
    code, rec5 = run_json(capsys, ["root", "r5.recipe"])
    taken.add(rec5["recipe_hash"][0])
    code, img5 = run_json(capsys, ["build", rec5["recipe_hash"]])
    mid_text = craft_text(f"FROM trusted:{img5['image_id']}\nRUN echo mid\n", "3", taken)
    Path("r3.recipe").write_text(mid_text)
    code, rec3 = run_json(capsys, ["child", "r3.recipe"])
    taken.add(rec3["recipe_hash"][0])
    code, img3 = run_json(capsys, ["build", rec3["recipe_hash"]])
    leaf_text = craft_text(f"FROM trusted:{img3['image_id']}\nRUN echo leaf\n", "1", taken)
    Path("r1.recipe").write_text(leaf_text)
    code, rec1 = run_json(capsys, ["child", "r1.recipe"])
    code, img1 = run_json(capsys, ["build", rec1["recipe_hash"]])

    assert cli.main(["lineage", "1"]) == 0
    assert capsys.readouterr().out == "5 -> 3 -> 1\n"
    assert cli.main(["tree", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert "5 -> 3" in dot and "3 -> 1" in dot


def test_diff_rebuild_cli(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    assert cli.main(["diff-rebuild", image["image_id"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"verdict identical for {image['image_id']}")
    code, report = run_json(capsys, ["diff-rebuild", image["image_id"], "--seed", "drift"])
    assert code == 0
    assert report["verdict"] == "divergent"
    assert len(report["step_diffs"]) >= 1


def test_list_filters_and_json(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    code, rows = run_json(capsys, ["list", "--kind", "root", "--status", "live"])
    assert code == 0
    assert [r["recipe_hash"] for r in rows] == [rec["recipe_hash"]]
    code, rows = run_json(capsys, ["list", "--signer", "nobody"])
    assert rows == []


def test_images_and_info(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    code, images = run_json(capsys, ["images", rec["recipe_hash"][:10]])
    assert code == 0
    assert images[0]["image_id"] == image["image_id"]
    assert cli.main(["info", rec["recipe_hash"]]) == 0
    out = capsys.readouterr().out
    assert f"recipe: {rec['recipe_hash']}" in out
    assert cli.main(["info", image["image_id"]]) == 0
    assert f"image: {image['image_id']}" in capsys.readouterr().out


def test_content_plain_and_lineage(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    assert cli.main(["content", rec["recipe_hash"]]) == 0
    assert capsys.readouterr().out == ROOT_TEXT
    assert cli.main(["content", rec["recipe_hash"], "--lineage"]) == 0
    assert "=====" in capsys.readouterr().out


def test_validate_clean_and_tampered(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    assert cli.main(["validate"]) == 0
    assert "validation passed" in capsys.readouterr().out
    log = Path("ledger/ledger.log")
    raw = bytearray(log.read_bytes())
    lines = raw.split(b"\n")
    line = bytearray(lines[2])
    line[120] ^= 0x01
    lines[2] = bytes(line)
    log.write_bytes(b"\n".join(lines))
    assert cli.main(["validate"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out and "validation FAILED" in out


def test_check_allow_and_deny_exit_codes(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    assert cli.main(["check", image["image_id"]]) == 0
    assert capsys.readouterr().out.startswith("allow ")
    assert cli.main(["remove", image["image_id"], "--reason", "bad"]) == 0
    capsys.readouterr()
    assert cli.main(["check", image["image_id"]]) == 10
    out = capsys.readouterr().out
    assert out.startswith("deny ")
    assert "reason: purged:image:" in out


def test_run_gate_exit_codes(workspace, capsys, tmp_path):
    rec, image = register_and_build_cli(capsys)
    assert cli.main(["run", image["image_id"], "--run-command", "true"]) == 0
    assert cli.main(["run", image["image_id"], "--run-command", "sh -c 'exit 9'"]) == 9
    marker = tmp_path / "never"
    assert cli.main(["remove", image["image_id"], "--reason", "bad"]) == 0
    capsys.readouterr()
    code = cli.main(["run", image["image_id"], "--run-command", f"touch {marker}"])
    assert code == 10
    assert not marker.exists()
    assert "RUN_DENIED" in capsys.readouterr().err


def test_archives_cli(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    code, removal = run_json(capsys, ["remove", rec["recipe_hash"], "--reason", "bad"])
    assert code == 0
    code, bundles = run_json(capsys, ["archives", "list"])
    assert [b["bundle_id"] for b in bundles] == [removal["bundle_id"]]
    assert cli.main(["archives", "show", removal["bundle_id"]]) == 0
    out = capsys.readouterr().out
    assert "integrity ok" in out
    assert cli.main(["archives", "show", "f" * 64]) == 3


@pytest.mark.parametrize("damage", ["flip-item", "delete-item", "malformed-manifest", "non-record-item"])
def test_damaged_bundle_exits_tamper_from_validate_and_archives_show(workspace, capsys, damage):
    rec, _ = register_and_build_cli(capsys)
    code, removal = run_json(capsys, ["remove", rec["recipe_hash"], "--reason", "bad"])
    assert code == 0
    ledger = Ledger.open("ledger")
    bundle_id = removal["bundle_id"]
    item = ledger.archive_root / bundle_id / f"recipe-{rec['recipe_hash']}.json"
    if damage == "flip-item":
        data = bytearray(item.read_bytes())
        data[10] ^= 0x01
        item.write_bytes(bytes(data))
    elif damage == "delete-item":
        item.unlink()
    elif damage == "malformed-manifest":
        bundle_id = file_crafted_bundle(ledger, MALFORMED_MANIFESTS["items-not-a-list"])
    else:  # every digest matches, but the item is not a record
        entry = {"type": "recipe", "id": "abc", "digest": crypto.digest(b"not a record")}
        body = {"created_at": "2026-01-02T03:04:05Z", "reason": "r", "items": [entry]}
        bundle_id = file_crafted_bundle(ledger, body, {"recipe-abc.json": b"not a record"})
    ledger.close()
    assert cli.main(["archives", "show", bundle_id]) == 4
    assert "error: TAMPER: bundle" in capsys.readouterr().err
    assert cli.main(["validate"]) == 4
    assert "bundle-manifest: bundle" in capsys.readouterr().out


def test_write_signed_with_another_key_exits_4(workspace, capsys):
    """A signing key that is not the signer's enrolled one is refused
    before anything is written."""
    _, image = register_and_build_cli(capsys)
    Path("pending.recipe").write_text("FROM debian:12\nRUN echo b\n")
    code, pending = run_json(capsys, ["root", "pending.recipe"])
    assert code == 0
    Path("new.recipe").write_text("FROM alpine\nRUN echo new\n")
    Path("child.recipe").write_text(f"FROM trusted:{image['image_id']}\nRUN echo c\n")
    assert cli.main(["keygen", "--private", "bob.key"]) == 0
    log = Path("ledger/ledger.log").read_bytes()
    capsys.readouterr()
    for argv in (["root", "new.recipe"], ["child", "child.recipe"], ["build", pending["recipe_hash"]]):
        assert cli.main([*argv, "--key", "bob.key"]) == 4, argv
        assert "error: SIGNATURE_INVALID: " in capsys.readouterr().err
        assert Path("ledger/ledger.log").read_bytes() == log
    assert cli.main(["validate"]) == 0


def test_trust_distrust_cli(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    assert cli.main(["trust", "list"]) == 0
    assert "alice trusted" in capsys.readouterr().out
    code, result = run_json(capsys, ["trust", "distrust", "alice", "--reason", "rogue"])
    assert code == 0
    assert rec["recipe_hash"] in result["purged_recipes"]
    assert cli.main(["root", "base.recipe"]) == 5
    assert "UNTRUSTED_SIGNER" in capsys.readouterr().err


def test_config_file_and_precedence(cli_env, capsys, monkeypatch):
    config = cli_env / "conf.json"
    config.write_text(json.dumps({
        "ledger": "from-config",
        "signer": "alice",
        "key": "alice.key",
    }))
    assert cli.main(["init", "--config", str(config)]) == 0
    assert Path("from-config/ledger.log").exists()
    # env beats config
    monkeypatch.setenv("SPOCK_LEDGER", "from-env")
    assert cli.main(["init", "--config", str(config)]) == 0
    assert Path("from-env/ledger.log").exists()
    # flag beats env
    assert cli.main(["init", "--config", str(config), "--ledger", "from-flag"]) == 0
    assert Path("from-flag/ledger.log").exists()
    capsys.readouterr()


def test_missing_config_file_flag_errors(cli_env, capsys):
    assert cli.main(["init", "--config", "missing.json"]) == 2
    assert "CONFIG" in capsys.readouterr().err


def test_errors_are_single_line_tokens(workspace, capsys):
    cli.main(["info", "f" * 64])
    err = capsys.readouterr().err
    assert err.startswith("error: NOT_FOUND: ")
    assert err.count("\n") == 1


def test_json_outputs_parse_everywhere(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    for argv in (
        ["list"],
        ["images", rec["recipe_hash"]],
        ["info", rec["recipe_hash"]],
        ["lineage", rec["recipe_hash"]],
        ["validate"],
        ["check", image["image_id"]],
        ["trust", "list"],
        ["archives", "list"],
    ):
        code, payload = run_json(capsys, argv)
        assert code == 0, argv
        assert payload is not None


def test_usage_error_exit_2(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build"])  # missing argument
    assert exc.value.code == 2


def test_tree_json_stdout(workspace, capsys):
    rec, image = register_and_build_cli(capsys)
    assert cli.main(["tree"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {n["hash"] for n in data["nodes"]} == {rec["recipe_hash"]}


def test_cli_import_loads_no_subprocess_or_key_serialization():
    # site already imports tempfile and shutil, so only these are asserted
    lazy = ("subprocess", "cryptography.hazmat.primitives.serialization")
    probe = f"import sys, spock.cli; print([m for m in {lazy!r} if m in sys.modules])"
    src = Path(cli.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    ).stdout
    assert out.strip() == "[]"

"""One write rule: ``Ledger.append`` writes only a record that passes every
check ``validate`` would make of it, into a log that replay did not find
altered. So nothing spock writes can fail spock's ``validate``."""

from __future__ import annotations

import ast
import inspect
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import spock
from spock import Ledger, MockEngine, builder, crypto, recipe, revocation, verify
from spock.errors import SignatureInvalidError, SpockError
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


def _write(ledger: Ledger, op: str, n: int, signer: str, key: str) -> None:
    """One library write, its target picked by ``n``."""
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


NAMES = st.sampled_from(sorted(KEYS))
WRITES = st.tuples(
    st.sampled_from(["trust", "root", "child", "build", "remove", "distrust"]),
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
    assert set(verify._WRITE_ERRORS) <= names
    assert set(verify._CHECK_CODES) <= names


def test_spock_verify_is_the_verify_module():
    assert spock.verify is sys.modules["spock.verify"]
    assert "verify" not in spock.__all__

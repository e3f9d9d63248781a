"""Content hashing, detached Ed25519 signatures, and text codecs.

Everything stored in the ledger is either a SHA-256 hex digest, a
base64-encoded byte string, or plain text. Signatures are detached: they
are computed over the exact byte sequence being protected, with no
canonicalization or framing, and stored next to the content's digest.

Key material lives in PEM files on disk. Private keys never enter the
ledger; public keys round-trip losslessly through their raw-byte base64
encoding.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import os
import re
from dataclasses import dataclass
from pathlib import Path

# ``serialization`` is imported inside the PEM functions only, so commands
# that read no key file do not pay for its import at start-up.
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import SpockError

ALGORITHM = "ed25519"

_HEX_DIGEST = re.compile(r"[0-9a-f]{64}")


def digest(content: bytes) -> str:
    """SHA-256 of ``content`` as 64 lowercase hex characters."""
    return hashlib.sha256(content).hexdigest()


def is_digest(value: str) -> bool:
    # one regex, not a loop per character: every check parses the image
    # ids on its path
    return _HEX_DIGEST.fullmatch(value) is not None


def encode_text(data: bytes) -> str:
    """Base64 text encoding used for every byte field stored in the ledger."""
    return base64.b64encode(data).decode("ascii")


def decode_text(text: str) -> bytes:
    try:
        # exactly what b64decode(validate=True) runs from Python 3.11
        return binascii.a2b_base64(text.encode("ascii"), strict_mode=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise SpockError(f"invalid base64 text: {exc}") from exc


@dataclass(frozen=True)
class PublicKey:
    algorithm: str
    raw: bytes

    def to_text(self) -> str:
        return encode_text(self.raw)

    @classmethod
    def from_text(cls, text: str, algorithm: str = ALGORITHM) -> "PublicKey":
        return cls(algorithm=algorithm, raw=decode_text(text))

    def to_pem(self) -> str:
        from cryptography.hazmat.primitives import serialization

        pub = Ed25519PublicKey.from_public_bytes(self.raw)
        return pub.public_bytes(
            encoding=serialization.Encoding.PEM,
            format=serialization.PublicFormat.SubjectPublicKeyInfo,
        ).decode("ascii")

    @classmethod
    def from_pem(cls, pem: str) -> "PublicKey":
        from cryptography.hazmat.primitives import serialization

        try:
            key = serialization.load_pem_public_key(pem.encode("ascii"))
        except Exception as exc:
            raise SpockError(f"cannot load public key: {exc}") from exc
        if not isinstance(key, Ed25519PublicKey):
            raise SpockError("public key is not an Ed25519 key")
        return cls(algorithm=ALGORITHM, raw=key.public_bytes_raw())


@dataclass(frozen=True)
class PrivateKey:
    algorithm: str
    raw: bytes

    def public_key(self) -> PublicKey:
        priv = Ed25519PrivateKey.from_private_bytes(self.raw)
        return PublicKey(algorithm=self.algorithm, raw=priv.public_key().public_bytes_raw())

    def to_pem(self) -> str:
        from cryptography.hazmat.primitives import serialization

        priv = Ed25519PrivateKey.from_private_bytes(self.raw)
        return priv.private_bytes(
            encoding=serialization.Encoding.PEM,
            format=serialization.PrivateFormat.PKCS8,
            encryption_algorithm=serialization.NoEncryption(),
        ).decode("ascii")

    @classmethod
    def from_pem(cls, pem: str) -> "PrivateKey":
        from cryptography.hazmat.primitives import serialization

        try:
            key = serialization.load_pem_private_key(pem.encode("ascii"), password=None)
        except Exception as exc:
            raise SpockError(f"cannot load private key: {exc}") from exc
        if not isinstance(key, Ed25519PrivateKey):
            raise SpockError("private key is not an Ed25519 key")
        return cls(algorithm=ALGORITHM, raw=key.private_bytes_raw())


@dataclass(frozen=True)
class Signature:
    algorithm: str
    value: bytes
    signer_id: str

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "signer_id": self.signer_id,
            "value": encode_text(self.value),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Signature":
        # positional, in field order, as replay builds one per record; a
        # test round-trips every field, so a reordered field fails it
        return cls(data["algorithm"], decode_text(data["value"]), data["signer_id"])


def keygen() -> tuple[PublicKey, PrivateKey]:
    priv = Ed25519PrivateKey.generate()
    return (
        PublicKey(ALGORITHM, priv.public_key().public_bytes_raw()),
        PrivateKey(ALGORITHM, priv.private_bytes_raw()),
    )


def sign(content: bytes, key: PrivateKey, signer_id: str) -> Signature:
    """Detached signature over exactly ``content``."""
    if key.algorithm != ALGORITHM:
        raise SpockError(f"unsupported signing algorithm: {key.algorithm}")
    priv = Ed25519PrivateKey.from_private_bytes(key.raw)
    return Signature(algorithm=ALGORITHM, value=priv.sign(content), signer_id=signer_id)


def verify(content: bytes, sig: Signature, key: PublicKey) -> bool:
    """True iff ``sig`` is valid for ``content`` under ``key``.

    Malformed inputs, wrong algorithms, and forged signatures all return
    False; verification never raises.
    """
    if sig.algorithm != ALGORITHM or key.algorithm != ALGORITHM:
        return False
    try:
        pub = Ed25519PublicKey.from_public_bytes(key.raw)
        pub.verify(sig.value, content)
        return True
    except Exception:
        return False


def write_private_key(path: str | Path, key: PrivateKey) -> None:
    """Write a PEM private key file readable only by its owner."""
    path = Path(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.write(fd, key.to_pem().encode("ascii"))
    finally:
        os.close(fd)
    os.chmod(path, 0o600)


def read_private_key(path: str | Path) -> PrivateKey:
    return PrivateKey.from_pem(Path(path).read_text(encoding="ascii"))


def write_public_key(path: str | Path, key: PublicKey) -> None:
    Path(path).write_text(key.to_pem(), encoding="ascii")


def read_public_key(path: str | Path) -> PublicKey:
    return PublicKey.from_pem(Path(path).read_text(encoding="ascii"))

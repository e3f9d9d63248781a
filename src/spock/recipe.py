"""Recipe parsing, classification, and signed registration.

A recipe is plain text. Only the single FROM line is interpreted:

    FROM alpine:3.18                         -> root (external base)
    FROM trusted:<timestamp>-<recipe-hash>   -> child (internal image)

Everything else is an opaque build step, preserved verbatim. Roots pull
from outside the trust domain; children extend an image this ledger
already vouches for, and may only be registered while that image and its
whole ancestry are live, signed, and trusted, as
``provenance.lineage_problems`` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import clock, crypto
from .crypto import PrivateKey
from .errors import ParentRejectedError, ParseError, UntrustedSignerError
from .records import KIND_CHILD, KIND_ROOT, RecipeRecord, STATUS_TRUSTED

if TYPE_CHECKING:
    from .ledger import Ledger

INTERNAL_PREFIX = "trusted:"


@dataclass(frozen=True)
class Recipe:
    """Parsed recipe: its FROM reference, its other lines, and the
    original text. ``from_ref`` keeps the ``trusted:`` prefix for
    children; ``base_ref`` strips it."""

    from_ref: str
    kind: str
    steps: tuple[str, ...]
    text: str

    @property
    def content(self) -> bytes:
        return self.text.encode("utf-8")

    @property
    def base_ref(self) -> str:
        if self.kind == KIND_CHILD:
            return self.from_ref[len(INTERNAL_PREFIX):]
        return self.from_ref

    @property
    def parent_image_id(self) -> str | None:
        return _link(self.from_ref)[1]


def parse(text: str) -> Recipe:
    """Parse recipe text and classify it as root or child.

    Comments and blank lines are preserved as steps but never affect
    classification. Exactly one FROM line is required.
    """
    if not text.strip():
        raise ParseError("empty recipe")
    lines = text.splitlines()
    index, from_ref = from_line(lines)
    kind, _ = _link(from_ref)
    steps = tuple(lines[:index] + lines[index + 1:])
    return Recipe(from_ref=from_ref, kind=kind, steps=steps, text=text)


def from_line(lines: list[str]) -> tuple[int, str]:
    """Index and reference of a recipe's single FROM line. Raises
    ParseError when there is none, more than one, or it names nothing."""
    found: tuple[int, str] | None = None
    for index, line in enumerate(lines):
        tokens = line.split(None, 2)
        if tokens and tokens[0].upper() == "FROM":
            if found is not None:
                raise ParseError("multiple FROM lines; recipes have a single parent")
            if len(tokens) < 2:
                raise ParseError("FROM line has no reference")
            found = (index, tokens[1])
    if found is None:
        raise ParseError("recipe has no FROM line")
    return found


def signed_link(content: bytes) -> tuple[str, str | None] | None:
    """(kind, parent image id) that recipe bytes give through their FROM
    line, or None when they do not decode or parse. Replay calls this once
    per recipe, and every query that walks the forest follows its result."""
    try:
        _, from_ref = from_line(content.decode("utf-8").splitlines())
    except (UnicodeDecodeError, ParseError):
        return None
    return _link(from_ref)


def _link(from_ref: str) -> tuple[str, str | None]:
    if from_ref.startswith(INTERNAL_PREFIX):
        return KIND_CHILD, from_ref[len(INTERNAL_PREFIX):]
    return KIND_ROOT, None


def require_trusted(ledger: Ledger, signer: str) -> None:
    entity = ledger.entities.get(signer)
    if entity is None or entity.status != STATUS_TRUSTED:
        raise UntrustedSignerError(f"signer is not a trusted entity: {signer}")


def register_root(ledger: Ledger, text: str, signer: str, private_key: PrivateKey) -> RecipeRecord:
    return _register(ledger, text, signer, private_key, KIND_ROOT)


def register_child(ledger: Ledger, text: str, signer: str, private_key: PrivateKey) -> RecipeRecord:
    return _register(ledger, text, signer, private_key, KIND_CHILD)


def _register(
    ledger: Ledger, text: str, signer: str, private_key: PrivateKey, kind: str
) -> RecipeRecord:
    parsed = parse(text)
    if parsed.kind != kind:
        source = "an internal image" if parsed.kind == KIND_CHILD else "an external source"
        raise ParseError(f"recipe references {source}; register it with the {parsed.kind} command")
    with ledger.exclusive():
        require_trusted(ledger, signer)
        parent_id = parsed.parent_image_id
        if parent_id is not None:
            from .provenance import lineage_problems  # local import to avoid a cycle

            problems = lineage_problems(ledger, parent_id)
            if problems:
                raise ParentRejectedError(
                    f"referenced image fails lineage verification: {'; '.join(map(str, problems))}"
                )
        record = RecipeRecord(
            recipe_hash=crypto.digest(parsed.content),
            kind=kind,
            content=parsed.content,
            signature=crypto.sign(parsed.content, private_key, signer),
            signer_id=signer,
            parent_image_id=parent_id,
            registered_at=clock.now_utc(),
        )
        ledger.append(record)
    return record

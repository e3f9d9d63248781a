"""Image building: signed build records, the no-rebuild rule, and
quarantined difference rebuilds.

Engines are pluggable. MockEngine is fully deterministic from (recipe
content, parent digest, seed) and exists so that policy and diffing can
be exercised without a container runtime. ExecEngine shells out to a
real OCI builder through a configurable command template.

Only one live image may ever exist per recipe. Rebuilding requires
revoking the existing image first; a difference rebuild instead runs the
recipe again into a quarantine tag and reports divergence without
touching any ledger status.

Whether a recipe may be built or an image rebuilt is decided by
``provenance.lineage_problems``; ``_REFUSALS`` only picks the error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from . import crypto
from .crypto import PrivateKey
from .errors import (
    EngineError,
    NotFoundError,
    PurgedError,
    RebuildDeniedError,
    SignatureInvalidError,
    UntrustedSignerError,
)
from .ledger import Ledger
from .provenance import lineage_problems
from .recipe import Recipe, parse, require_trusted
from .records import ImageRecord, LedgerEvent, RecipeRecord, STATUS_LIVE
from .verify import PURGED, UNKNOWN_IMAGE, UNTRUSTED_SIGNER
from . import clock

QUARANTINE_NAMESPACE = "spock-quarantine"

_SEP = b"\x00"


@dataclass(frozen=True)
class BuildResult:
    image_digest: str
    step_digests: tuple[str, ...]
    engine_log: str


@dataclass(frozen=True)
class StepDiff:
    index: int
    trusted: str | None
    rebuilt: str | None


@dataclass(frozen=True)
class DiffReport:
    target_image_id: str
    rebuilt_digest: str
    digest_match: bool
    step_diffs: tuple[StepDiff, ...]

    @property
    def verdict(self) -> str:
        return "identical" if self.digest_match and not self.step_diffs else "divergent"

    def to_dict(self) -> dict:
        return {
            "image_id": self.target_image_id,
            "rebuilt_digest": self.rebuilt_digest,
            "digest_match": self.digest_match,
            "step_diffs": [[d.index, d.trusted, d.rebuilt] for d in self.step_diffs],
            "verdict": self.verdict,
        }


class MockEngine:
    """Deterministic stand-in for a container builder.

    The produced digests are pure functions of the recipe content, the
    parent digest (or the external FROM reference for roots), and the
    seed, joined with NUL separators:

        image digest   = sha256(content, base, seed)
        step digest i  = sha256(step line, i, seed)

    The seed models everything temporal about a real build; two runs
    with the same seed are identical, and a perturbed seed diverges.
    """

    name = "mock"

    def __init__(self, seed: str = "0"):
        self.seed = seed

    def build(self, recipe: Recipe, parent_digest: str | None, tag: str) -> BuildResult:
        base = parent_digest if parent_digest is not None else recipe.base_ref
        image_digest = crypto.digest(
            recipe.content + _SEP + base.encode("utf-8") + _SEP + self.seed.encode("utf-8")
        )
        step_digests = tuple(
            crypto.digest(
                step.encode("utf-8") + _SEP + str(i).encode("ascii") + _SEP + self.seed.encode("utf-8")
            )
            for i, step in enumerate(recipe.steps)
        )
        return BuildResult(
            image_digest=image_digest,
            step_digests=step_digests,
            engine_log=f"mock build ({len(recipe.steps)} steps, tag {tag})",
        )


_DIGEST_RE = re.compile(r"sha256:([0-9a-f]{64})")


class ExecEngine:
    """Run an external OCI builder as a subprocess.

    The command template may use ``{recipe}`` (path of the recipe file in
    a scratch directory), ``{context}`` (the scratch directory), and
    ``{tag}`` (a lower-case OCI image reference). A nonzero exit is an
    engine failure; the image digest is the last ``sha256:<hex>`` token in
    the combined output. Real engines do not expose per-step digests, so
    those are recorded as absent.
    """

    name = "exec"

    def __init__(self, command_template: str):
        self.command_template = command_template

    def build(self, recipe: Recipe, parent_digest: str | None, tag: str) -> BuildResult:
        import shlex
        import subprocess
        import tempfile

        with tempfile.TemporaryDirectory(prefix="spock-build-") as scratch:
            recipe_path = Path(scratch) / "Dockerfile"
            recipe_path.write_text(recipe.text, encoding="utf-8")
            command = self.command_template.format(
                recipe=str(recipe_path), context=scratch, tag=tag
            )
            try:
                proc = subprocess.run(
                    shlex.split(command), capture_output=True, text=True, check=False
                )
            except OSError as exc:
                raise EngineError(f"cannot run build command: {exc}") from exc
            log = proc.stdout + proc.stderr
            if proc.returncode != 0:
                raise EngineError(
                    f"build command exited {proc.returncode}: {log.strip()[-500:]}"
                )
            matches = _DIGEST_RE.findall(log)
            if not matches:
                raise EngineError("build command produced no sha256 image digest")
            return BuildResult(image_digest=matches[-1], step_digests=(), engine_log=log)


# which error refuses a node, by the first of its problem codes found here;
# any other problem means the ledger's records cannot be believed
_REFUSALS = (
    (UNKNOWN_IMAGE, NotFoundError),
    (UNTRUSTED_SIGNER, UntrustedSignerError),
    (PURGED, PurgedError),
)


def _admit(ledger: Ledger, node: str | RecipeRecord, noun: str) -> None:
    """Raise unless the admission rule lets ``node`` be used."""
    problems = lineage_problems(ledger, node)
    if not problems:
        return
    codes = {p.code for p in problems}
    error = next((e for code, e in _REFUSALS if code in codes), SignatureInvalidError)
    raise error(f"{noun} lineage fails verification: {'; '.join(map(str, problems))}")


def _build_preconditions(
    ledger: Ledger, recipe_hash: str, signer: str
) -> tuple[Recipe, ImageRecord | None]:
    record = ledger.recipes.get(recipe_hash)
    if record is None:
        raise NotFoundError(f"unknown recipe: {recipe_hash}")
    if record.status != STATUS_LIVE:
        raise PurgedError(f"recipe was revoked and cannot be built: {recipe_hash}")
    require_trusted(ledger, signer)
    live = ledger.live_image_for(recipe_hash)
    if live is not None:
        raise RebuildDeniedError(
            f"a live image already exists for recipe {recipe_hash}: {live.image_id}; "
            "it must be removed before the recipe can be rebuilt"
        )
    # the recipe node carries no image, so its own previous (now purged)
    # image is deliberately not a problem: removal is what permits rebuilding
    _admit(ledger, record, "recipe")
    return parse(record.text), ledger.images.get(ledger.parent_of(recipe_hash))


def build(
    ledger: Ledger,
    recipe_hash: str,
    engine,
    signer: str,
    private_key: PrivateKey,
) -> ImageRecord:
    """Build a live recipe into a signed, uniquely identified image.

    The engine runs outside the writer lock; every precondition is
    re-checked inside the final locked commit, and an engine failure
    stores nothing.
    """
    ledger.refresh()
    parsed, parent = _build_preconditions(ledger, recipe_hash, signer)
    # OCI repository names are lower-case; the stamp's T and Z are not
    tag = f"{clock.iso_basic(clock.now_utc())}-{recipe_hash}".lower()
    result = engine.build(parsed, None if parent is None else parent.image_digest, tag=tag)
    with ledger.exclusive():
        _, parent = _build_preconditions(ledger, recipe_hash, signer)
        image_id = ledger.allocate_image_id(recipe_hash, parent)
        image = ImageRecord(
            image_id=image_id.render(),
            recipe_hash=recipe_hash,
            parent_image_id=None if parent is None else parent.image_id,
            image_digest=result.image_digest,
            step_digests=result.step_digests,
            signature=crypto.Signature(crypto.ALGORITHM, b"", signer),
            signer_id=signer,
        )
        image.signature = crypto.sign(image.signed_bytes(), private_key, signer)
        ledger.append(image)
    return image


def diff_rebuild(ledger: Ledger, image_id: str, engine) -> DiffReport:
    """Re-run a trusted image's recipe into quarantine and report drift.

    No image record is created and no status changes; the report itself
    is appended to the audit history.
    """
    ledger.refresh()
    _admit(ledger, image_id, "image")
    image = ledger.images[image_id]
    parsed = parse(ledger.recipes[image.recipe_hash].text)
    parent = ledger.images.get(ledger.parent_of(image.recipe_hash))
    parent_digest = None if parent is None else parent.image_digest
    result = engine.build(parsed, parent_digest, tag=f"{QUARANTINE_NAMESPACE}/{image_id.lower()}")
    steps = enumerate(zip_longest(image.step_digests, result.step_digests))
    # a step with no trusted digest recorded has nothing to compare
    diffs = tuple(StepDiff(index=i, trusted=t, rebuilt=r) for i, (t, r) in steps if t is not None and t != r)
    report = DiffReport(
        target_image_id=image_id,
        rebuilt_digest=result.image_digest,
        digest_match=result.image_digest == image.image_digest,
        step_diffs=diffs,
    )
    with ledger.exclusive():
        ledger.append(
            LedgerEvent(event="diff_report", at=clock.now_utc(), data=report.to_dict())
        )
    return report

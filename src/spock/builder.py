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
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
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
from .provenance import lineage_problems, recipe_record_problems
from .recipe import Recipe, parse
from .records import ImageRecord, LedgerEvent, STATUS_LIVE, STATUS_TRUSTED
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


def mock_build(recipe: Recipe | str, parent_digest: str | None, seed: str) -> tuple[str, tuple[str, ...]]:
    """Convenience wrapper over MockEngine for oracle-style callers."""
    if isinstance(recipe, str):
        recipe = parse(recipe)
    result = MockEngine(seed).build(recipe, parent_digest, tag="")
    return result.image_digest, result.step_digests


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


def _build_preconditions(
    ledger: Ledger, recipe_hash: str, signer: str
) -> tuple[Recipe, str | None]:
    record = ledger.recipes.get(recipe_hash)
    if record is None:
        raise NotFoundError(f"unknown recipe: {recipe_hash}")
    if record.status != STATUS_LIVE:
        raise PurgedError(f"recipe was revoked and cannot be built: {recipe_hash}")
    entity = ledger.entities.get(signer)
    if entity is None or entity.status != STATUS_TRUSTED:
        raise UntrustedSignerError(f"signer is not a trusted entity: {signer}")
    live = ledger.live_image_for(recipe_hash)
    if live is not None:
        raise RebuildDeniedError(
            f"a live image already exists for recipe {recipe_hash}: {live.image_id}; "
            "it must be removed before the recipe can be rebuilt"
        )
    # the recipe itself, and its ancestry through the parent image; the
    # recipe's own previous (now purged) image is deliberately not a
    # problem here, since removal is exactly what permits rebuilding
    problems = recipe_record_problems(ledger, record)
    parent_digest = None
    if record.parent_image_id is not None:
        parent = ledger.images.get(record.parent_image_id)
        if parent is None:
            raise NotFoundError(f"parent image missing: {record.parent_image_id}")
        problems.extend(lineage_problems(ledger, parent))
        parent_digest = parent.image_digest
    if problems:
        detail = "; ".join(problems)
        if any(p.startswith("untrusted-signer") for p in problems):
            raise UntrustedSignerError(f"recipe lineage fails verification: {detail}")
        if any(p.startswith("purged") for p in problems):
            raise PurgedError(f"recipe lineage fails verification: {detail}")
        raise SignatureInvalidError(f"recipe lineage fails verification: {detail}")
    parsed = parse(record.text)
    return parsed, parent_digest


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
    parsed, parent_digest = _build_preconditions(ledger, recipe_hash, signer)
    # OCI repository names are lower-case; the stamp's T and Z are not
    tag = f"{clock.iso_basic(clock.now_utc())}-{recipe_hash}".lower()
    result = engine.build(parsed, parent_digest, tag=tag)
    with ledger.exclusive():
        _build_preconditions(ledger, recipe_hash, signer)
        record = ledger.recipes[recipe_hash]
        image_id = ledger.allocate_image_id(recipe_hash, _parent_image(ledger, record))
        image = ImageRecord(
            image_id=image_id.render(),
            recipe_hash=recipe_hash,
            parent_image_id=record.parent_image_id,
            image_digest=result.image_digest,
            step_digests=result.step_digests,
            signature=crypto.Signature(crypto.ALGORITHM, b"", signer),
            signer_id=signer,
        )
        image.signature = crypto.sign(image.signed_bytes(), private_key, signer)
        return ledger.put_image(image)


def _parent_image(ledger: Ledger, record) -> ImageRecord | None:
    if record.parent_image_id is None:
        return None
    return ledger.images.get(record.parent_image_id)


def diff_rebuild(ledger: Ledger, image_id: str, engine) -> DiffReport:
    """Re-run a trusted image's recipe into quarantine and report drift.

    No image record is created and no status changes; the report itself
    is appended to the audit history.
    """
    ledger.refresh()
    image = ledger.images.get(image_id)
    if image is None:
        raise NotFoundError(f"unknown image: {image_id}")
    if image.status != STATUS_LIVE:
        raise PurgedError(f"image is not live: {image_id}")
    recipe = ledger.recipes.get(image.recipe_hash)
    if recipe is None or recipe.status != STATUS_LIVE:
        raise PurgedError(f"recipe is not live: {image.recipe_hash}")
    parsed = parse(recipe.text)
    parent_digest = None
    if image.parent_image_id is not None:
        parent = ledger.get_image(image.parent_image_id)
        parent_digest = parent.image_digest
    result = engine.build(parsed, parent_digest, tag=f"{QUARANTINE_NAMESPACE}/{image_id.lower()}")
    diffs = []
    trusted = image.step_digests
    rebuilt = result.step_digests
    for i in range(max(len(trusted), len(rebuilt))):
        t = trusted[i] if i < len(trusted) else None
        r = rebuilt[i] if i < len(rebuilt) else None
        if t is None:
            continue  # no trusted step digest recorded: nothing to compare
        if t != r:
            diffs.append(StepDiff(index=i, trusted=t, rebuilt=r))
    report = DiffReport(
        target_image_id=image_id,
        rebuilt_digest=result.image_digest,
        digest_match=result.image_digest == image.image_digest,
        step_diffs=tuple(diffs),
    )
    with ledger.exclusive():
        ledger.append(
            LedgerEvent(event="diff_report", at=clock.now_utc(), data=report.to_dict())
        )
    return report

"""Seeded ledger generator, and the oracle that judges spock's answers.

The generator drives only spock's public API. It swaps
``spock.clock.now_utc`` for a stepping fake clock (the extension point
that module documents) and derives every signer key from the seed, so one
seed yields a byte-identical ledger. Its own bookkeeping of parents,
children and purges is the oracle: verdicts are computed from it, never
from ``spock.provenance``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import spock.clock
from spock import builder, crypto, recipe, revocation, rungate
from spock.ledger import Ledger

# Shape parameters, and why each has its value.
MAX_DEPTH = 4  # a forest of depth 4 or less: a leaf check verifies up to 8 records
SIGNERS = 4  # four signers, so signer lookups and keys are not a single hot entry
ROOT_SHARE = 0.2  # with uniform parent choice this gives about 1 root per 5 recipes and
#                   subtrees of a few nodes, so removes purge a handful of records
PURGE_SHARE = 0.10  # purged at set-up: about 10% of images deny on a purged lineage
UNKNOWN_IDS = 64  # well-formed ids never registered: the deny-unknown path
STEPS = 3  # RUN lines per recipe; MockEngine hashes each step
EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def direct(kind: str, fn, *args):
    return fn(*args)


class Mismatch(Exception):
    """spock gave an answer the oracle rejects."""


class FakeClock:
    """UTC clock that advances one second per reading, and calls ``tick``
    (when given) at each reading."""

    def __init__(self, start: datetime = EPOCH, tick=None):
        self.now = start
        self.tick = tick

    def __call__(self) -> datetime:
        if self.tick is not None:
            self.tick()
        self.now += timedelta(seconds=1)
        return self.now


@dataclass(frozen=True)
class Signer:
    entity_id: str
    key: crypto.PrivateKey


def derive_signers(seed: int) -> list[Signer]:
    return [
        Signer(
            f"signer{k}",
            crypto.PrivateKey(crypto.ALGORITHM, hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()),
        )
        for k in range(SIGNERS)
    ]


@dataclass
class Oracle:
    """The generator's bookkeeping: who extends whom, and what is purged."""

    recipe_parent: dict[str, str | None] = field(default_factory=dict)  # recipe -> parent image
    image_recipe: dict[str, str] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)  # image -> child recipes
    images_of: dict[str, list[str]] = field(default_factory=dict)  # recipe -> images
    depth: dict[str, int] = field(default_factory=dict)  # image -> depth, a root's image is 1
    purged: set[str] = field(default_factory=set)  # purged recipe hashes and image ids
    image_order: list[str] = field(default_factory=list)
    unknown: list[str] = field(default_factory=list)

    def add(self, recipe_hash: str, parent: str | None, image_id: str) -> None:
        self.recipe_parent[recipe_hash] = parent
        self.image_recipe[image_id] = recipe_hash
        self.images_of.setdefault(recipe_hash, []).append(image_id)
        self.depth[image_id] = 1 if parent is None else self.depth[parent] + 1
        if parent is not None:
            self.children.setdefault(parent, []).append(recipe_hash)
        self.image_order.append(image_id)

    def allowed(self, image_id: str) -> bool:
        """Reachable from a live root through live recipes and images."""
        while image_id is not None:
            recipe_hash = self.image_recipe.get(image_id)
            if recipe_hash is None or image_id in self.purged or recipe_hash in self.purged:
                return False
            image_id = self.recipe_parent[recipe_hash]
        return True

    def closure(self, image_id: str) -> tuple[set[str], set[str]]:
        """Live recipes and images a remove of ``image_id`` must purge."""
        recipes: set[str] = set()
        images: set[str] = set()
        frontier = [image_id]
        while frontier:
            img = frontier.pop()
            if img in self.purged or img in images:
                continue
            images.add(img)
            for child in self.children.get(img, []):
                if child in self.purged or child in recipes:
                    continue
                recipes.add(child)
                frontier.extend(self.images_of.get(child, []))
        return recipes, images

    def path(self, image_id: str) -> list[str]:
        """Recipe hashes from the root down to ``image_id``'s recipe."""
        out: list[str] = []
        while image_id is not None:
            recipe_hash = self.image_recipe[image_id]
            out.append(recipe_hash)
            image_id = self.recipe_parent[recipe_hash]
        return out[::-1]

    def leaves(self) -> list[str]:
        return [i for i in self.image_order if not self.children.get(i)]


def recipe_text(seed: int, index: int, parent: str | None) -> str:
    base = f"alpine:3.{index % 20}" if parent is None else f"trusted:{parent}"
    steps = "".join(f"RUN step-{s} {seed}-{index}\n" for s in range(STEPS))
    return f"FROM {base}\n{steps}"


class Generator:
    """Builds one seeded ledger and keeps the oracle in step with it."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"ledger:{seed}")
        self.signers = derive_signers(seed)
        self.engine = builder.MockEngine(seed=str(seed))
        self.oracle = Oracle()
        self.eligible: list[str] = []  # live images a child may extend (depth < MAX_DEPTH)
        self.count = 0
        self.removes = 0

    def signer(self) -> Signer:
        return self.signers[self.rng.randrange(SIGNERS)]

    def register_and_build(self, ledger: Ledger, parent: str | None, call=direct):
        """Register one recipe (root when ``parent`` is None) and build it.

        ``call(kind, fn, *args)`` runs each spock call, so a workload can time it."""
        signer = self.signer()
        text = recipe_text(self.seed, self.count, parent)
        self.count += 1
        register = recipe.register_root if parent is None else recipe.register_child
        rec = call("register", register, ledger, text, signer.entity_id, signer.key)
        if rec.recipe_hash != crypto.digest(text.encode()) or rec.parent_image_id != parent:
            raise Mismatch(f"register returned the wrong record for recipe {self.count - 1}")
        image = call(
            "build", builder.build, ledger, rec.recipe_hash, self.engine, signer.entity_id, signer.key
        )
        if image.recipe_hash != rec.recipe_hash or image.parent_image_id != parent:
            raise Mismatch(f"build returned the wrong image for recipe {rec.recipe_hash}")
        self.oracle.add(rec.recipe_hash, parent, image.image_id)
        if self.oracle.depth[image.image_id] < MAX_DEPTH:
            self.eligible.append(image.image_id)
        return rec, image

    def pick_parent(self) -> str | None:
        while self.eligible:
            i = self.rng.randrange(len(self.eligible))
            candidate = self.eligible[i]
            if candidate not in self.oracle.purged:
                return candidate
            self.eligible[i] = self.eligible[-1]
            self.eligible.pop()
        return None

    def remove(self, ledger: Ledger, image_id: str, call=direct) -> int:
        """Remove a live image and check the purge against the oracle's closure."""
        want_recipes, want_images = self.oracle.closure(image_id)
        self.removes += 1
        bundle = call("remove", revocation.remove, ledger, image_id, f"perfbench remove {self.removes}")
        got_recipes = {r.recipe_hash for r in bundle.removed_recipes}
        got_images = {i.image_id for i in bundle.removed_images}
        self.oracle.purged |= want_recipes | want_images
        if (got_recipes, got_images) != (want_recipes, want_images):
            raise Mismatch(f"remove of {image_id} purged the wrong closure")
        return len(got_recipes) + len(got_images)

    def generate(self, root: Path, recipes: int, admissions: bool, tick=None) -> Ledger:
        """Create the ledger at ``root``: a forest, purged subtrees, and
        optionally one admission line per image. ``tick()`` is called at
        each clock reading while it runs."""
        clock = spock.clock.now_utc = FakeClock(tick=tick)
        ledger = Ledger.init(root, sync=False)
        for signer in self.signers:
            ledger.add_entity(signer.entity_id, signer.key.public_key())
        for _ in range(recipes):
            parent = None if self.rng.random() < ROOT_SHARE else self.pick_parent()
            self.register_and_build(ledger, parent)
        live = list(self.oracle.image_order)
        while len(self.oracle.purged & self.oracle.image_recipe.keys()) < PURGE_SHARE * len(live):
            victim = live[self.rng.randrange(len(live))]
            if victim not in self.oracle.purged:
                self.remove(ledger, victim)
        self.oracle.unknown = [
            f"{spock.clock.iso_basic(EPOCH + timedelta(days=1, seconds=k))}-"
            + hashlib.sha256(f"unknown:{self.seed}:{k}".encode()).hexdigest()
            for k in range(UNKNOWN_IDS)
        ]
        if admissions:
            for image_id in self.oracle.image_order:
                decision = rungate.check_runnable(ledger, image_id)
                if decision.allowed != self.oracle.allowed(image_id):
                    raise Mismatch(f"set-up check of {image_id} disagrees with the oracle")
        ledger.close()
        clock.tick = None
        return ledger

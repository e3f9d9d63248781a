"""The three workloads: set-up, measured loop, and the oracle's checks.

Each workload is a closed loop with one client. Every operation is judged
against the generator's oracle; an operation that raises, or returns a
verdict or output the oracle rejects, counts as failed.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spock import provenance, rungate
from spock.ledger import Ledger

from calibrate import Calibration, ColdCalibration
from ledgergen import MAX_DEPTH, Generator, Mismatch, Oracle
from spans import Stopwatch, Tracer, layer_metrics, self_time_table
from spec import SETUP_REPS, Workload

HERE = Path(__file__).resolve().parent
LIVE_SHARE = 0.85  # of check draws: live images, allowed
PURGED_SHARE = 0.10  # purged images, denied; the rest are unknown ids, denied
REGISTER_SHARE = 0.40  # churn: register_child then build
REMOVE_SHARE = 0.10  # churn: cascading remove then a check that must deny
# a cold check before each other command, so a run has four times as many
# check samples as it has of any other command
CLI_CYCLE = ("check", "info", "check", "lineage", "check", "tree", "check", "validate")
CLI_KINDS = ("check", "info", "lineage", "tree", "validate")
CLI_TIMEOUT_S = 150
EXIT_ALLOW, EXIT_DENY = 0, 10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reported: int = 0

    def judge(self, fn, *args) -> None:
        """Run one judged operation; count it failed if it raises."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a failed operation must not end the run
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                detail = str(exc) if isinstance(exc, Mismatch) else traceback.format_exc()
                print(f"perfbench: operation failed: {detail}", file=sys.stderr)


@dataclass
class Context:
    workload: Workload
    seed: int
    seconds: float
    recipes: int
    workdir: Path
    tracer: Tracer | None
    tally: Tally = field(default_factory=Tally)
    setup_probe: Calibration = field(default_factory=Calibration)
    loop_probe: Calibration = field(default_factory=Calibration)
    generator: Generator | None = None
    ledger: Ledger | None = None

    @property
    def ledger_path(self) -> Path:
        return self.workdir / "ledger"

    @property
    def oracle(self) -> Oracle:
        return self.generator.oracle


def draw(rng: random.Random, oracle: Oracle) -> str:
    """An image id to check: live 85%, purged 10%, unknown 5%."""
    u = rng.random()
    if u >= LIVE_SHARE + PURGED_SHARE:
        return oracle.unknown[rng.randrange(len(oracle.unknown))]
    return pick_image(rng, oracle, allowed=u < LIVE_SHARE)


def pick_image(rng: random.Random, oracle: Oracle, allowed: bool) -> str:
    """A live or purged image at a depth drawn uniformly from 1 to MAX_DEPTH.

    A check verifies two records per level, and the share of deep images
    differs from seed to seed by up to a tenth; drawing the depth first
    keeps the work per check the same for every seed."""
    images = oracle.image_order
    depth = rng.randint(1, MAX_DEPTH)
    for tries in range(10_000):
        image_id = images[rng.randrange(len(images))]
        if (oracle.depth[image_id] == depth or tries >= 1_000) and oracle.allowed(image_id) == allowed:
            return image_id  # after 1,000 tries, the ledger may have none at this depth
    raise Mismatch(f"the ledger has no {'live' if allowed else 'purged'} image to draw")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def setup(ctx: Context) -> list[list[tuple[float, float]]]:
    """Generate the ledger from the seed; warm workloads then open it with
    the default flush policy. Repeated; each repetition is timed as the
    (end, seconds) segments between the probes taken while it runs."""
    reps = []
    probe = ctx.setup_probe
    for _ in range(1 if ctx.tracer else SETUP_REPS):
        if ctx.ledger is not None:
            ctx.ledger.close()
        shutil.rmtree(ctx.ledger_path, ignore_errors=True)
        probe.probe()
        probe.start()
        ctx.generator = Generator(ctx.seed)
        ctx.generator.generate(ctx.ledger_path, ctx.recipes, admissions=ctx.workload.cold,
                               tick=None if ctx.tracer else probe.tick)
        if not ctx.workload.cold:
            ctx.ledger = Ledger.open(ctx.ledger_path)
        reps.append(probe.stop())
        probe.probe()
    return reps


def check_op(ctx: Context, sw: Stopwatch, image_id: str) -> None:
    decision = sw.call("check", rungate.check_runnable, ctx.ledger, image_id)
    want = ctx.oracle.allowed(image_id)
    expect(decision.image_id == image_id and decision.allowed == want,
           f"check {image_id}: got {decision.verdict}, oracle says {'allow' if want else 'deny'}")


def loop(ctx: Context, sw: Stopwatch, step) -> None:
    rng = random.Random(f"{ctx.workload.name}:{ctx.seed}")
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds:
        ctx.loop_probe.maybe_probe()
        sw.begin_op()
        ctx.tally.judge(step, rng)
        sw.end_op()
    ctx.loop_probe.probe()


def run_gate(ctx: Context, sw: Stopwatch) -> None:
    loop(ctx, sw, lambda rng: check_op(ctx, sw, draw(rng, ctx.oracle)))


def run_churn(ctx: Context, sw: Stopwatch) -> list[str]:
    removed: list[str] = []

    def step(rng: random.Random) -> None:
        u = rng.random()
        gen = ctx.generator
        if u < REGISTER_SHARE:
            parent = gen.pick_parent()
            expect(parent is not None, "no live image left to extend")
            gen.register_and_build(ctx.ledger, parent, sw.call)
        elif u < REGISTER_SHARE + REMOVE_SHARE:
            victim = pick_image(rng, ctx.oracle, allowed=True)
            _, images = ctx.oracle.closure(victim)
            gen.remove(ctx.ledger, victim, sw.call)
            removed.extend(images)
            check_op(ctx, sw, victim)
        else:
            check_op(ctx, sw, draw(rng, ctx.oracle))

    loop(ctx, sw, step)
    return removed


def audit(ctx: Context, removed: list[str]) -> None:
    """Re-open the ledger from disk and compare it with the oracle."""
    oracle = ctx.oracle
    tally = ctx.tally
    ledger = Ledger.open(ctx.ledger_path)
    try:
        tally.judge(lambda: expect(ledger.validate_all().ok, "validate_all fails on the final ledger"))

        def tree() -> None:
            nodes = json.loads(provenance.export_tree(ledger))["nodes"]
            expect(len(nodes) == len(oracle.recipe_parent), f"tree has {len(nodes)} nodes")

        def statuses() -> None:
            for image_id, recipe_hash in oracle.image_recipe.items():
                for ref, rec in ((image_id, ledger.images.get(image_id)), (recipe_hash, ledger.recipes.get(recipe_hash))):
                    want = "purged" if ref in oracle.purged else "live"
                    expect(rec is not None and rec.status == want, f"{ref} is not {want}")

        tally.judge(tree)
        tally.judge(statuses)
        for image_id in removed:
            tally.judge(lambda i=image_id: expect(
                not rungate.check_runnable(ledger, i).allowed, f"{i} was removed but is allowed"))
    finally:
        ledger.close()


class Cli:
    """Runs spock commands as child processes, one at a time."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        src = HERE.parent / "src"
        config = ctx.workdir / "config"
        config.mkdir(exist_ok=True)
        self.env = {
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(src),
            "SPOCK_LEDGER": str(ctx.ledger_path),
            "XDG_CONFIG_HOME": str(config),
            "HOME": str(ctx.workdir),
            "LANG": "C.UTF-8",
        }
        self.spans_path = ctx.workdir / "spans.json"

    def run(self, argv: list[str], traced: bool) -> subprocess.CompletedProcess:
        if traced:
            cmd = [sys.executable, str(HERE / "cli_driver.py"), str(self.spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "spock.cli", *argv]
        return subprocess.run(cmd, env=self.env, cwd=self.ctx.workdir, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)


def run_cli_cold(ctx: Context, sw: Stopwatch) -> None:
    oracle = ctx.oracle
    rng = random.Random(f"{ctx.workload.name}:{ctx.seed}")
    leaves = oracle.leaves()
    recipes = sorted(oracle.recipe_parent)
    cli = Cli(ctx)
    ctx.loop_probe = ColdCalibration(cli.env)

    def unique_prefix() -> tuple[str, str]:
        while True:
            recipe_hash = recipes[rng.randrange(len(recipes))]
            prefix = recipe_hash[:12]
            if sum(1 for h in recipes if h.startswith(prefix)) == 1:
                return prefix, recipe_hash

    def command(kind: str) -> None:
        leaf = leaves[rng.randrange(len(leaves))]
        if kind == "check":
            argv = ["check", leaf]
        elif kind == "info":
            prefix, want_hash = unique_prefix()
            argv = ["info", prefix]
        elif kind == "lineage":
            argv = ["lineage", leaf, "--json"]
        else:
            argv = [kind]
        sw.begin_op()
        traced = sw.tracing
        try:
            proc = sw.call(kind, cli.run, argv, traced)
            if traced:
                ctx.tracer.merge(cli.spans_path, sw.last_span)
        finally:
            sw.end_op()
        out = proc.stdout
        if kind == "check":
            want = oracle.allowed(leaf)
            expect(proc.returncode == (EXIT_ALLOW if want else EXIT_DENY)
                   and out.startswith(f"{'allow' if want else 'deny'} {leaf}"),
                   f"check {leaf}: exit {proc.returncode}, oracle says {'allow' if want else 'deny'}")
            return
        expect(proc.returncode == 0, f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr[-300:]}")
        if kind == "info":
            expect(f"recipe: {want_hash}\n" in out, f"info {prefix} did not show recipe {want_hash}")
        elif kind == "lineage":
            payload = json.loads(out)
            want_path = oracle.path(leaf)
            expect([n["recipe_hash"] for n in payload["path"]] == want_path, f"lineage {leaf}: wrong path")
            for label, recipe_hash in zip(payload["labels"], want_path):
                expect([h for h in recipes if h.startswith(label)] == [recipe_hash],
                       f"lineage label {label} does not resolve to {recipe_hash}")
        elif kind == "tree":
            nodes = json.loads(out)["nodes"]
            expect(len(nodes) == len(recipes), f"tree has {len(nodes)} nodes, oracle {len(recipes)}")
        else:
            expect("validation passed" in out, "validate did not pass")

    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds:
        for kind in CLI_CYCLE:
            if ctx.tracer:
                # a traced run runs each command untraced, then traced
                ctx.tally.judge(command, kind)
            else:
                ctx.loop_probe.probe()
            ctx.tally.judge(command, kind)
    if not ctx.tracer:
        ctx.loop_probe.probe()


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    tally: Tally
    metrics: dict[str, float]  # end to end, or per layer when traced
    detail: list[tuple[str, float, str, int]]  # name, value, unit, samples
    table: list[tuple[str, float]] = field(default_factory=list)  # traced self time per op


def run(workload: Workload, seed: int, seconds: float, recipes: int, workdir: Path,
        tracer: Tracer | None) -> Outcome:
    ctx = Context(workload, seed, seconds, recipes, workdir, tracer)
    if tracer:
        tracer.install()
    setup_s = setup(ctx)
    warm = not workload.cold
    sw = Stopwatch(tracer, stretch=20 if warm else 1)
    if tracer:
        tracer.phase = "loop"
    removed: list[str] = []
    if workload.name == "gate":
        run_gate(ctx, sw)
    elif workload.name == "churn":
        removed = run_churn(ctx, sw)
    else:
        run_cli_cold(ctx, sw)
    if tracer:
        tracer.install()
        tracer.phase = "audit"
    if ctx.ledger is not None:
        ctx.ledger.close()
    if warm:
        audit(ctx, removed)
    if tracer:
        tracer.uninstall()
        return Outcome(ctx.tally, layer_metrics(tracer, sw), [], self_time_table(tracer))
    return summarize(ctx, sw, setup_s)


def summarize(ctx: Context, sw: Stopwatch, setup_s: list[list[tuple[float, float]]]) -> Outcome:
    """End-to-end metrics, each timed call scaled to the reference machine
    speed by the probes around it, and the detail lines, which give the
    figures as timed."""
    checks = sw.samples.get("check", [])
    ops_per_s = len(sw.untraced_ops) / sum(s for _, s in sw.untraced_ops)
    metrics = {
        "setup_s": statistics.median(sum(ctx.setup_probe.scaled(rep)) for rep in setup_s),
        "ops_per_s": len(sw.untraced_ops) / sum(ctx.loop_probe.scaled(sw.untraced_ops)),
        "check_p50_ms": statistics.median(ctx.loop_probe.scaled(checks)) * 1e3,
    }

    def raw(samples: list[tuple[float, float]]) -> list[float]:
        return [s for _, s in samples]

    detail = [
        ("setup_s", statistics.median(sum(raw(rep)) for rep in setup_s), "s", len(setup_s)),
        ("setup_probe_ms", ctx.setup_probe.median_s * 1e3, "ms", len(ctx.setup_probe.times)),
        ("loop_probe_ms", ctx.loop_probe.median_s * 1e3, "ms", len(ctx.loop_probe.times)),
    ]
    if ctx.workload.cold:
        for kind in CLI_KINDS:
            samples = raw(sw.samples.get(kind, []))
            detail.append((f"cli_{kind}_ms", statistics.median(samples) * 1e3, "ms", len(samples)))
    else:
        detail.append(("check_p50_ms", statistics.median(raw(checks)) * 1e3, "ms", len(checks)))
        if ctx.workload.name == "gate":
            detail.append(("check_p99_ms", percentile(raw(checks), 99) * 1e3, "ms", len(checks)))
            detail.append(("checks_per_s", ops_per_s, "1/s", len(sw.untraced_ops)))
        else:
            detail.append(("ops_per_s", ops_per_s, "1/s", len(sw.untraced_ops)))
            for kind in ("register", "build", "remove"):
                samples = raw(sw.samples.get(kind, []))
                detail.append((f"{kind}_p50_ms", statistics.median(samples) * 1e3, "ms", len(samples)))
    tally = ctx.tally
    detail.append(("failed_ratio", tally.failed / max(tally.attempted, 1), "share", tally.attempted))
    return Outcome(tally, metrics, detail)

"""What the benchmark measures: its workloads, metrics and regression bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``), so the runner, the smoke
test and the manifest share one list of names.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# Set-up is repeated and its median reported, so that work moved into
# set-up shows without one slow repetition deciding the figure.
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    recipes: int
    cold: bool  # one spock process per operation; its ledger also holds admission history
    why: str


# Every workload is a closed loop with one client: run-gate callers and
# operators wait for each verdict before sending the next request.
# Ledger sizes keep a run, with its three set-ups, near 40 s on 2 cores
# (one set-up of 1,000 register+build pairs takes 3-4 s), so that 70 runs
# fit in under an hour. At 1,000 recipes short_labels still dominates
# cli-cold lineage and tree, and the per-append index rewrite still shows
# in a gate check.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gate", 1000, False,
            "run-gate traffic: warm process, 1-client closed loop of check_runnable over 1000 "
            "recipes+images, depth<=4, 4 signers; 85% live, 10% purged, 5% unknown ids, depth drawn "
            "uniformly",
        ),
        Workload(
            "cli-cold", 1000, True,
            "operator path: 1 cold `python -m spock.cli` process at a time over 1000 recipes plus "
            "one admission line per image; cycles info, lineage, tree, validate, a check before each",
        ),
        Workload(
            "churn", 1000, False,
            "writes next to reads: warm 1-client closed loop on the gate ledger; 40% register_child"
            "+build, 10% cascading remove then a deny check, 50% check_runnable",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    about: str = ""


# Printed by every workload. A figure that only one workload has (say the
# median `tree` process) is printed on the detail lines instead, because
# every end-to-end metric must be measured on every workload. Times are
# scaled to the reference machine speed (calibrate.py); the detail lines
# give them as timed.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25,
           "median of the set-up repetitions: seeded generation through the public API"),
    Metric("ops_per_s", "1/s", "higher", 0.25,
           "operations per second of time spent in spock (gate: checks; churn: mixed "
           "operations; cli-cold: processes)"),
    Metric("check_p50_ms", "ms", "lower", 0.25,
           "median admission check (cli-cold: one cold `spock check` process)"),
]

# Each line names the end-to-end figure it should move, and where.
PER_LAYER = [
    Metric("import.spock_cli_ms", "ms", "lower", about="import of spock.cli; every cli-cold process"),
    Metric("ledger.open_ms", "ms", "lower", about="Ledger.open with replay; cli-cold processes, setup_s"),
    Metric("ledger.lines_replayed", "count", "lower", about="log lines replayed per open"),
    Metric("ledger.replay_us_per_line", "us", "lower", about="open time per replayed line"),
    Metric("ledger.admission_line_share", "share", "lower",
           about="share of replayed lines that are admission events"),
    Metric("ledger.append_ms", "ms", "lower", about="Ledger.append, fsync included; gate and churn"),
    Metric("ledger.appends_per_op", "count", "lower", about="appends per workload operation"),
    Metric("ledger.fsyncs_per_op", "count", "lower", about="os.fsync calls per workload operation"),
    Metric("ledger.fsync_ms", "ms", "lower", about="one os.fsync call"),
    Metric("ledger.refresh_ms", "ms", "lower", about="Ledger.refresh catch-up outside open; gate"),
    Metric("ledger.resolve_us", "us", "lower", about="Ledger.resolve; cli-cold info"),
    Metric("ledger.validate_all_ms", "ms", "lower", about="Ledger.validate_all; cli-cold validate"),
    Metric("crypto.verify_us", "us", "lower", about="one Ed25519 verify"),
    Metric("crypto.verifies_per_check", "count", "lower", about="verifies inside one check_runnable"),
    Metric("crypto.repeat_verify_ratio", "share", "lower",
           about="share of verifies of a (bytes, key) pair this process already verified"),
    Metric("crypto.sign_us", "us", "lower", about="one Ed25519 sign; churn register and build"),
    Metric("provenance.lineage_problems_ms", "ms", "lower", about="self time; gate check"),
    Metric("provenance.short_labels_ms", "ms", "lower", about="cli-cold lineage and tree"),
    Metric("provenance.export_tree_ms", "ms", "lower", about="cli-cold tree"),
    Metric("rungate.check_runnable_self_ms", "ms", "lower", about="self time; gate check"),
    Metric("recipe.register_child_ms", "ms", "lower", about="churn register"),
    Metric("builder.build_self_ms", "ms", "lower", about="self time; churn build"),
    Metric("builder.mock_engine_ms", "ms", "lower", about="MockEngine.build; churn build"),
    Metric("revocation.remove_ms", "ms", "lower", about="churn remove"),
    Metric("revocation.records_purged_per_remove", "count", "lower",
           about="recipes plus images purged by one remove"),
    Metric("trace.untraced_op_ms", "ms", "lower", about="mean operation time with tracing off"),
    Metric("trace.traced_op_ms", "ms", "lower", about="mean operation time with tracing on"),
    Metric("trace.overhead_pct", "%", "lower", about="traced over untraced operation time, minus 1"),
    Metric("trace.unattributed_ms_per_op", "ms", "lower",
           about="operation time inside no layer span (cli-cold: interpreter start and exit)"),
]


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }

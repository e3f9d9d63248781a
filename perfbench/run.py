"""spock's benchmark.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 20 --trace 0

Builds a seeded ledger through spock's public API, runs one workload for
``--seconds``, checks every answer against the generator's oracle and
prints each figure by name with its unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). ``--write-manifest`` regenerates BENCHMARK.json from spec.py.

spock is imported from ``src/`` of the checkout that holds this directory;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="spock benchmark")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recipes", type=int, help="ledger size (default: the workload's)")
    parser.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def pin_to_one_cpu() -> None:
    """Run this process, and the spock and probe processes it starts, on
    one CPU. A vCPU of a shared machine can switch between a fast and a
    slow speed (1.45x apart on the 2-core machine the bounds were set on)
    within a second or so, each CPU on its own; on one CPU, a probe and
    the timed call next to it see the same speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "spock" / "cli.py").is_file():
        print(f"perfbench: spock sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import spock.cli  # noqa: F401  (timed: the import a warm process pays once)

    imported = time.perf_counter()
    if not Path(spock.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: spock was imported from {spock.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from ledgergen import Mismatch
    from spans import Tracer

    workload = spec.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.add("import", start, imported)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workloads.run(workload, args.seed, args.seconds, args.recipes or workload.recipes,
                                workdir, tracer)
    except Mismatch as exc:
        print(f"perfbench: spock disagrees with the oracle during set-up: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}
    for name, value, unit, samples in outcome.detail:
        print(f"{workload.name} {name} = {value:.6g} {unit} (n={samples})")
    for name, ms in outcome.table:
        print(f"{workload.name} self time {name} = {ms:.6g} ms/op")
    if outcome.table:
        print(f"{workload.name} self time, all spans = {sum(ms for _, ms in outcome.table):.6g} ms/op "
              f"(span 'op' is time inside an operation but in no layer span)")
    for name, value in outcome.metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    tally = outcome.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test for the benchmark itself, at a tiny ledger size.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
                 "--recipes", "200")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_result(result: dict, metrics: list[spec.Metric]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in metrics}
    for m in metrics:
        assert result["metrics"][m.name]["unit"] == m.unit
        assert isinstance(result["metrics"][m.name]["value"], float)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = run_tiny(workload, 0)
    check_result(result, spec.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert f"{workload} failed_ratio = 0 share" in "\n".join(lines)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = run_tiny(workload, 1)
    check_result(result, spec.PER_LAYER)


def test_one_seed_gives_a_byte_identical_ledger(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import spock.clock

    from ledgergen import Generator

    monkeypatch.setattr(spock.clock, "now_utc", spock.clock.now_utc)
    logs = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        Generator(seed).generate(tmp_path / name, 30, admissions=True)
        logs.append((tmp_path / name / "ledger.log").read_bytes())
    assert logs[0] == logs[1]
    assert logs[0] != logs[2]


def test_manifest_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Spans recorded around spock's public functions, and the per-layer
figures derived from them.

A span is (name, start, end, parent, phase, count). Spans stay in memory
and are summarised when the run ends. Each wrapper is installed where the
name is looked up: ``rungate`` and ``builder`` import ``lineage_problems``
by name, so the provenance attribute alone would miss their calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from pathlib import Path

import spock.builder
import spock.crypto
import spock.provenance
import spock.recipe
import spock.revocation
import spock.rungate
from spock.ledger import Ledger

NAME, START, END, PARENT, PHASE, COUNT = range(6)

OPEN = "ledger.open"
CHECK = "rungate.check_runnable"
VERIFY = "crypto.verify"
OP = "op"  # one timed call of a workload operation, made by the benchmark


def _replayed(args, ledger) -> tuple[int, int]:
    """(lines, admission lines) an open replayed, from public state."""
    lines = 1 + len(ledger.entities) + len(ledger.recipes) + len(ledger.images) + len(ledger.events)
    admissions = sum(1 for e in ledger.events if e.event == "admission")
    return lines, admissions


def _purged(args, bundle) -> int:
    return len(bundle.removed_recipes) + len(bundle.removed_images)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self.ops = 0  # workload operations completed inside traced stretches
        self._stack: list[int] = []
        self._verified: set[bytes] = set()
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured without a wrapper, such as an import."""
        self.spans.append([name, start, end, -1, self.phase, None])

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                self.spans[idx][COUNT] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _repeat(self, args, _result) -> int:
        content, _sig, key = args
        token = hashlib.blake2b(bytes(content) + key.raw, digest_size=16).digest()
        if token in self._verified:
            return 1
        self._verified.add(token)
        return 0

    def install(self) -> None:
        if self._saved:
            return
        provenance = spock.provenance
        targets = [
            (spock.rungate, "check_runnable", CHECK, None),
            (spock.rungate, "lineage_problems", "provenance.lineage_problems", None),
            (spock.builder, "lineage_problems", "provenance.lineage_problems", None),
            (provenance, "lineage_problems", "provenance.lineage_problems", None),
            (provenance, "short_labels", "provenance.short_labels", None),
            (provenance, "export_tree", "provenance.export_tree", None),
            (spock.crypto, "verify", VERIFY, self._repeat),
            (spock.crypto, "sign", "crypto.sign", None),
            (os, "fsync", "os.fsync", None),
            (spock.recipe, "register_child", "recipe.register_child", None),
            (spock.builder, "build", "builder.build", None),
            (spock.builder.MockEngine, "build", "builder.MockEngine.build", None),
            (spock.revocation, "remove", "revocation.remove", _purged),
            (Ledger, "append", "ledger.append", None),
            (Ledger, "refresh", "ledger.refresh", None),
            (Ledger, "resolve", "ledger.resolve", None),
            (Ledger, "validate_all", "ledger.validate_all", None),
        ]
        for owner, attr, name, count in targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        opener = vars(Ledger)["open"]
        self._saved.append((Ledger, "open", opener))
        Ledger.open = classmethod(self.wrap(OPEN, opener.__func__, _replayed))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))

    def merge(self, path: Path, parent: int) -> None:
        """Adopt a child process's spans under the span ``parent``."""
        base = len(self.spans)
        for name, start, end, up, _phase, count in json.loads(path.read_text()):
            self.spans.append([name, start, end, parent if up < 0 else base + up, self.phase, count])


class Stopwatch:
    """Times each spock call a workload makes, split into stretches with
    tracing off and on, so both are measured under the same load."""

    def __init__(self, tracer: Tracer | None = None, stretch: int = 20):
        self.tracer = tracer
        self.stretch = stretch
        self.samples: dict[str, list[tuple[float, float]]] = {}  # kind -> (end, seconds)
        self.traced_op_s: list[float] = []
        self.untraced_ops: list[tuple[float, float]] = []  # (end, seconds)
        self.ops = 0
        self.last_span = -1
        self._op_s = 0.0

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and (self.ops // self.stretch) % 2 == 1

    def begin_op(self) -> None:
        if self.tracing:
            self.tracer.install()
        elif self.tracer is not None:
            self.tracer.uninstall()
        self._op_s = 0.0

    def end_op(self) -> None:
        if self.tracing:
            self.traced_op_s.append(self._op_s)
            self.tracer.ops += 1
        else:
            self.untraced_ops.append((time.perf_counter(), self._op_s))
        self.ops += 1

    def call(self, kind: str, fn, *args):
        """Run ``fn(*args)`` as part of the current operation and time it.

        Only untraced calls are kept as latency samples, each with the
        time it ended."""
        tracing = self.tracing
        idx = self.tracer.begin(OP) if tracing else -1
        self.last_span = idx
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            dt = end - t0
            if tracing:
                self.tracer.end(idx)
            else:
                self.samples.setdefault(kind, []).append((end, dt))
            self._op_s += dt


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_table(tracer: Tracer) -> list[tuple[str, float]]:
    """Self time per operation of each span name inside the loop, largest first."""
    totals: dict[str, float] = {}
    for s, own in zip(tracer.spans, _self_times(tracer.spans)):
        if s[PHASE] == "loop":
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + own
    ops = max(tracer.ops, 1)
    return sorted(((k, v * 1e3 / ops) for k, v in totals.items()), key=lambda kv: -kv[1])


def layer_metrics(tracer: Tracer, stopwatch: Stopwatch) -> dict[str, float]:
    """Per-layer figures. A layer the measured loop calls is reported from
    the loop; a layer only set-up or the final audit calls is reported
    from those, so every workload reports every layer."""
    spans = tracer.spans
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def pick(name: str) -> list[int]:
        idxs = by_name.get(name, [])
        loop = [i for i in idxs if spans[i][PHASE] == "loop"]
        return loop or idxs

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def mean_ms(name: str, self_time: bool = False, scale: float = 1e3) -> float:
        return _mean((own[i] if self_time else dur(i)) * scale for i in pick(name))

    def per_op(name: str) -> float:
        return sum(1 for i in by_name.get(name, []) if spans[i][PHASE] == "loop") / ops

    def under(i: int, name: str) -> bool:
        i = spans[i][PARENT]
        while i >= 0:
            if spans[i][NAME] == name:
                return True
            i = spans[i][PARENT]
        return False

    opens = pick(OPEN)
    lines = sum(spans[i][COUNT][0] for i in opens)
    admissions = sum(spans[i][COUNT][1] for i in opens)
    open_s = sum(dur(i) for i in opens)
    verifies = pick(VERIFY)
    ops = max(tracer.ops, 1)
    # a refresh inside an open is the replay itself, counted by ledger.open_ms
    refreshes = [i for i in pick("ledger.refresh") if not under(i, OPEN)]
    untraced = _mean(s for _, s in stopwatch.untraced_ops) * 1e3
    traced = _mean(stopwatch.traced_op_s) * 1e3
    return {
        "import.spock_cli_ms": mean_ms("import"),
        "ledger.open_ms": open_s * 1e3 / max(len(opens), 1),
        "ledger.lines_replayed": lines / max(len(opens), 1),
        "ledger.replay_us_per_line": open_s * 1e6 / max(lines, 1),
        "ledger.admission_line_share": admissions / max(lines, 1),
        "ledger.append_ms": mean_ms("ledger.append"),
        "ledger.appends_per_op": per_op("ledger.append"),
        "ledger.fsyncs_per_op": per_op("os.fsync"),
        "ledger.fsync_ms": mean_ms("os.fsync"),
        "ledger.refresh_ms": _mean(dur(i) * 1e3 for i in refreshes),
        "ledger.resolve_us": mean_ms("ledger.resolve", scale=1e6),
        "ledger.validate_all_ms": mean_ms("ledger.validate_all"),
        "crypto.verify_us": mean_ms(VERIFY, scale=1e6),
        "crypto.verifies_per_check": sum(1 for i in verifies if under(i, CHECK)) / max(len(pick(CHECK)), 1),
        "crypto.repeat_verify_ratio": sum(spans[i][COUNT] for i in verifies) / max(len(verifies), 1),
        "crypto.sign_us": mean_ms("crypto.sign", scale=1e6),
        "provenance.lineage_problems_ms": mean_ms("provenance.lineage_problems", self_time=True),
        "provenance.short_labels_ms": mean_ms("provenance.short_labels"),
        "provenance.export_tree_ms": mean_ms("provenance.export_tree"),
        "rungate.check_runnable_self_ms": mean_ms(CHECK, self_time=True),
        "recipe.register_child_ms": mean_ms("recipe.register_child"),
        "builder.build_self_ms": mean_ms("builder.build", self_time=True),
        "builder.mock_engine_ms": mean_ms("builder.MockEngine.build"),
        "revocation.remove_ms": mean_ms("revocation.remove"),
        "revocation.records_purged_per_remove": _mean(spans[i][COUNT] for i in pick("revocation.remove")),
        "trace.untraced_op_ms": untraced,
        "trace.traced_op_ms": traced,
        "trace.overhead_pct": (traced / untraced - 1.0) * 100 if untraced else 0.0,
        "trace.unattributed_ms_per_op": dict(self_time_table(tracer)).get(OP, 0.0),
    }

"""A fixed reference workload, timed next to spock so that end-to-end
figures can be scaled to one machine speed.

On a shared machine, neighbours slow every process in a container by up to
2x, for a second to minutes at a time: the same run of Python code, JSON
and Ed25519 verifies takes twice as long. The probe does that kind of work
and nothing of spock's, so a change to spock cannot move it. Each timed
call is scaled by ``reference / median of the probes taken just before
and just after it``, which removes most of that drift and keeps the
change's own effect.

Warm workloads probe in process. cli-cold probes with a cold interpreter
that imports and runs the same kind of code, because starting a process
(exec, page faults, unmarshalling modules) slows differently from work in
a warm one.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import json
import statistics
import subprocess
import sys
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# The probes' median times on the 2-core machine the bounds were set on,
# when nothing else slowed it; any fixed values would do.
REFERENCE_PROBE_S = 0.0025
REFERENCE_COLD_PROBE_S = 0.1
INTERVAL_S = 0.05  # warm loops probe at most this often

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = b"perfbench calibration " * 16
_SIGNATURE = _KEY.sign(_MESSAGE)
_DOCUMENT = {"record": "image", "steps": [f"{i:064x}" for i in range(8)], "signer_id": "probe"}

# The cold probe: a fresh interpreter that imports what spock's CLI
# imports from outside spock, then does 5x the warm probe's work. It runs
# right before and right after each timed process, because the slow-downs
# come and go within a second.
_COLD_PROBE = """
import argparse, base64, dataclasses, datetime, hashlib, json, subprocess
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
public = key.public_key()
message = b"perfbench calibration " * 16
signature = key.sign(message)
document = {"record": "image", "steps": [f"{i:064x}" for i in range(8)], "signer_id": "probe"}
total = 0
for i in range(100_000):
    total += i * i
for _ in range(25):
    text = json.dumps(document, sort_keys=True)
    json.loads(base64.b64decode(base64.b64encode(text.encode())))
    hashlib.sha256(text.encode()).hexdigest()
for _ in range(20):
    public.verify(signature, message)
"""


def _work() -> None:
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(5):
        text = json.dumps(_DOCUMENT, sort_keys=True)
        json.loads(base64.b64decode(base64.b64encode(text.encode())))
        hashlib.sha256(text.encode()).hexdigest()
    for _ in range(4):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)


class Calibration:
    """Probe times taken during one phase of a run, each with the time it ended."""

    reference_s = REFERENCE_PROBE_S

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ends: list[float] = []
        self.segments: list[tuple[float, float]] = []
        self._mark = 0.0

    def _work(self) -> None:
        _work()

    def probe(self, repeat: int = 1) -> None:
        for _ in range(repeat):
            t0 = time.perf_counter()
            self._work()
            end = time.perf_counter()
            self.times.append(end - t0)
            self.ends.append(end)

    def maybe_probe(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.probe()

    def start(self) -> None:
        """Begin timing a stretch of work that calls ``tick`` as it goes."""
        self.segments = []
        self._mark = time.perf_counter()

    def tick(self) -> None:
        """Probe at most every INTERVAL_S, closing the segment of work before it."""
        now = time.perf_counter()
        if now - self._mark >= INTERVAL_S:
            self.segments.append((now, now - self._mark))
            self.probe()
            self._mark = self.ends[-1]

    def stop(self) -> list[tuple[float, float]]:
        """The stretch's (end, seconds) segments; probe time is in none of them."""
        now = time.perf_counter()
        self.segments.append((now, now - self._mark))
        return self.segments

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)

    def scale_at(self, end: float) -> float:
        """Multiply a time measured up to ``end`` by this to get it at the
        reference speed: the probes just before and just after set it."""
        k = bisect.bisect_left(self.ends, end)
        return self.reference_s / statistics.fmean(self.times[max(k - 1, 0):k + 1])

    def scaled(self, samples: list[tuple[float, float]]) -> list[float]:
        """Each (end, seconds) sample at the reference speed."""
        return [seconds * self.scale_at(end) for end, seconds in samples]


class ColdCalibration(Calibration):
    """Probes by running ``_COLD_PROBE`` in a new interpreter with ``env``."""

    reference_s = REFERENCE_COLD_PROBE_S

    def __init__(self, env: dict[str, str]) -> None:
        super().__init__()
        self.env = env

    def _work(self) -> None:
        subprocess.run([sys.executable, "-c", _COLD_PROBE], env=self.env, check=True, timeout=60)

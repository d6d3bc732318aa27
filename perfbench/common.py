"""Shared pieces of the benchmark: statistics, spans, fingerprint, metrics.

Everything here is benchmark-side instrumentation.  Spans are recorded
around the calls the benchmark makes into the program's layers, kept in
memory, and written out as JSONL when a run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: Percentiles a tail may be reported at, lowest first.
_TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


#: The latency limit (ms) on ``latency_tail_ms``.  A closed-loop replay
#: offers exactly what it serves, so its ``rate_at_slo_req_s`` is its
#: throughput, and a tail beyond this limit fails a check.
SLO_MS = 50.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with >= 10 beyond.

    With fewer than 20 samples not even the median leaves ten beyond it;
    the median is then reported and the caller sees the small ``n``.
    """
    n = len(values)
    chosen = _TAIL_PERCENTILES[0]
    for q in _TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            chosen = q
    return percentile(values, chosen), chosen, n


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- spans -------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: name, start, end, parent index and batch id.

    Spans nest on one thread, so a span's children never overlap each
    other and its self time is its duration minus theirs.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, batch]
        self._stack: list[int] = []
        self.batch = 0

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.batch]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time (seconds) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.spans:
            out[rec[0]] = out.get(rec[0], 0) + 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, batch) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "batch": batch}) + "\n")


class WrappedRouter:
    """A :class:`~repro.service.ShardRouter` stand-in that spans ``split``.

    The router has ``__slots__``, so the traced run swaps in this proxy
    on the service instead of patching the router object.
    """

    def __init__(self, router, recorder: SpanRecorder) -> None:
        self._router = router
        self.split = recorder.wrap("service.route", router.split)

    def __getattr__(self, name):
        return getattr(self._router, name)


# -- machine fingerprint -------------------------------------------------------
def fingerprint(root: Path) -> dict:
    """Where a result came from, so numbers from two machines never mix."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# -- metric collection ---------------------------------------------------------
class Metrics:
    """Named metric values with units, in the order they were set."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str]] = {}

    def set(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def missing(self, wanted: list[str]) -> list[str]:
        return [name for name in wanted
                if name not in self.values
                or not math.isfinite(self.values[name][0])]

    def as_json(self, wanted: list[str]) -> dict:
        return {name: {"value": self.values[name][0],
                       "unit": self.values[name][1]}
                for name in wanted}


class Checks:
    """Correctness checks: each failure is kept with its message."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.n = 0

    def expect(self, ok: bool, message: str) -> None:
        self.n += 1
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)

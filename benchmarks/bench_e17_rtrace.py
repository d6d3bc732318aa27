"""E17 — Request tracing: propagation and sampling overhead through the proxy.

Distributed request tracing (:mod:`repro.obs.rtrace`) adds work at every
tier: the client derives a context per batch, the wire carries a v2
``trace`` field, the proxy and backends derive child spans, and sampled
requests write JSONL records.  This bench prices that pipeline on the
E16 cluster topology (2 backends behind one proxy, same workload and
constants) across three configurations:

* **baseline** — tracing entirely off (no contexts, v1 frames);
* **propagate** — contexts derived and carried on every batch but
  sampling 0.0, so no span is ever written (pure propagation tax);
* **sampled 1%** — the deployment default: 1-in-100 batches write a
  full client->proxy->backend->shard waterfall.

Asserted (shape, not absolutes):

* **Causal chain** — the sampled run stitches at least one trace whose
  longest causal chain is >= 5 spans (the cross-tier acceptance
  criterion), and the propagate run writes exactly zero spans.
* **Overhead gates** (only on >= 2 usable cores, self-described by
  ``overhead_gate_enforced``): propagation keeps >= 95% of baseline
  throughput, 1% sampling keeps >= 90%.

Results land in ``benchmarks/results/e17_rtrace.{txt,json}``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

from repro.algorithms import KernelWaterFillingPolicy
from repro.analysis import Table
from repro.cluster import ClusterMap, ClusterProxy
from repro.net import AdmissionPolicy, NetServer, run_network_load
from repro.core.instance import WeightedPagingInstance
from repro.obs.rtrace import (
    SpanExporter,
    longest_chain,
    read_spans,
    stitch_spans,
)
from repro.service import PagingService, ServiceConfig
from repro.workloads import sample_weights, zipf_stream

from _util import emit, once

# E16's constants, verbatim: the overhead ratios only mean something if
# the two benches price the same cluster on the same stream.
N_PAGES, K, STREAM_LEN = 512, 64, 50_000
BATCH = 512
N_SHARDS = 4
WINDOW = 8
CONNECTIONS = 4
RATE = 1_000_000.0
N_BACKENDS = 2

PROPAGATE_FLOOR = 0.95   # sampling off: within 5% of baseline
SAMPLED_FLOOR = 0.90     # 1% sampling: within 10% of baseline
SAMPLE = 0.01
#: Seed chosen so the 1% sampler hits at least one of the stream's 98
#: batch indices (t=69) — the deterministic sampler makes that a fixed
#: property of (seed, t), not a per-run coin flip.
TRACE_SEED = 64


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _workload():
    inst = WeightedPagingInstance(K, sample_weights(N_PAGES, rng=0, high=64.0))
    seq = zipf_stream(N_PAGES, STREAM_LEN, alpha=0.9, rng=1)
    return inst, seq


def _backend(inst, span_dir: Path | None):
    svc = PagingService(ServiceConfig(
        instance=inst, policy_factory=KernelWaterFillingPolicy,
        n_shards=N_SHARDS, batch_size=BATCH, queue_depth=256, seed=0,
        policy_name="waterfilling-kernel",
    ))
    exporter = None
    if span_dir is not None:
        svc.enable_request_tracing(span_dir, sample=SAMPLE, seed=TRACE_SEED)
        exporter = SpanExporter(span_dir / "net.spans.jsonl", wall=True)
    svc.start()
    srv = NetServer(svc, admission=AdmissionPolicy(
        max_connections=64, max_inflight=WINDOW + 8,
        request_deadline_s=60.0), span_exporter=exporter)
    srv.start()
    return svc, srv, exporter


def _run_config(inst, seq, *, span_dir: Path | None, sample: float) -> dict:
    """One proxied loadgen run; ``span_dir=None`` is the untraced baseline."""
    backends = [
        _backend(inst, span_dir / f"backend-{b}" if span_dir else None)
        for b in range(N_BACKENDS)
    ]
    cmap = ClusterMap.balanced([srv.address for _, srv, _ in backends],
                               N_SHARDS)
    proxy_spans = (SpanExporter(span_dir / "proxy.spans.jsonl", wall=True)
                   if span_dir is not None else None)
    proxy = ClusterProxy(cmap, window=WINDOW, timeout=60.0,
                         span_exporter=proxy_spans).start()
    started = perf_counter()
    try:
        report = run_network_load(
            proxy.address, seq, rate=RATE, batch_size=BATCH,
            connections=CONNECTIONS, window=WINDOW, timeout=60.0,
            trace_sample=sample, trace_seed=TRACE_SEED,
            span_dir=span_dir)
        elapsed = perf_counter() - started
    finally:
        proxy.stop()
        if proxy_spans is not None:
            proxy_spans.close()
        for svc, srv, exporter in backends:
            srv.stop()
            svc.stop()
            if exporter is not None:
                exporter.close()
    out = {
        "throughput_req_s": report.achieved_rate,
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "served": report.n_served,
        "dropped_batches": report.n_dropped_batches,
        "failed_batches": report.n_failed_batches,
        "duration_s": elapsed,
        "n_spans": 0,
        "n_traces": 0,
        "max_chain": 0,
    }
    if span_dir is not None:
        files = sorted(span_dir.rglob("*.spans.jsonl"))
        traces = stitch_spans(read_spans(*files))
        out["n_spans"] = sum(len(r) for r in traces.values())
        out["n_traces"] = len(traces)
        out["max_chain"] = max(
            (len(longest_chain(r)) for r in traces.values()), default=0)
    return out


def run_experiment() -> tuple[Table, dict]:
    inst, seq = _workload()
    root = Path(tempfile.mkdtemp(prefix="repro-e17-"))
    try:
        baseline = _run_config(inst, seq, span_dir=None, sample=0.0)
        propagate = _run_config(inst, seq, span_dir=root / "propagate",
                                sample=0.0)
        sampled = _run_config(inst, seq, span_dir=root / "sampled",
                              sample=SAMPLE)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    base = baseline["throughput_req_s"]
    cores = usable_cores()
    table = Table(
        ["config", "req/s", "vs baseline", "p50 ms", "p99 ms",
         "spans", "max chain"],
        title=f"E17: request-tracing overhead through the proxy "
              f"(waterfilling-kernel, Zipf 0.9, n={N_PAGES}, k={K}, "
              f"{N_BACKENDS} backends, {cores} core(s))",
    )
    for name, run in (("baseline (no tracing)", baseline),
                      ("propagate (sample 0)", propagate),
                      (f"sampled ({SAMPLE:g})", sampled)):
        ratio = run["throughput_req_s"] / base if base else 0.0
        table.add_row(name, int(run["throughput_req_s"]), f"{ratio:.3f}x",
                      run["p50_ms"], run["p99_ms"], run["n_spans"],
                      run["max_chain"])
    extra = {
        "workload": {"n_pages": N_PAGES, "k": K, "requests": STREAM_LEN,
                     "batch_size": BATCH, "policy": "waterfilling-kernel",
                     "window": WINDOW, "shards": N_SHARDS,
                     "backends": N_BACKENDS, "sample": SAMPLE},
        "baseline": baseline,
        "propagate": propagate,
        "sampled": sampled,
        "propagate_vs_baseline": propagate["throughput_req_s"] / base,
        "sampled_vs_baseline": sampled["throughput_req_s"] / base,
        "propagate_floor": PROPAGATE_FLOOR,
        "sampled_floor": SAMPLED_FLOOR,
        "usable_cores": cores,
        "overhead_gate_enforced": cores >= 2,
    }
    return table, extra


def test_e17_rtrace_overhead(benchmark):
    table, extra = once(benchmark, run_experiment)
    emit(table, "e17_rtrace", extra=extra)
    # Every configuration delivers the entire stream, losslessly.
    for run in (extra["baseline"], extra["propagate"], extra["sampled"]):
        assert run["served"] == STREAM_LEN, run
        assert run["dropped_batches"] == 0, run
        assert run["failed_batches"] == 0, run
    # Propagation with sampling 0.0 records nothing; 1% sampling records
    # at least one full cross-tier waterfall (>= 5 causally-linked spans,
    # the PR's acceptance criterion).
    assert extra["propagate"]["n_spans"] == 0, extra["propagate"]
    assert extra["sampled"]["n_traces"] >= 1, extra["sampled"]
    assert extra["sampled"]["max_chain"] >= 5, extra["sampled"]
    # Overhead gates are timing-sensitive: enforced only with real
    # parallelism, always recorded (see BENCH_SUMMARY.json stale logic).
    if extra["overhead_gate_enforced"]:
        assert extra["propagate_vs_baseline"] >= PROPAGATE_FLOOR, extra
        assert extra["sampled_vs_baseline"] >= SAMPLED_FLOOR, extra
    else:
        print(f"E17 OVERHEAD GATES SKIPPED (usable_cores="
              f"{extra['usable_cores']} < 2): ratios recorded, not gated")

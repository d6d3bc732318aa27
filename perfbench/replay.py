"""In-process replay workloads: a closed loop into an inline service.

One caller submits the workload's stream back to back, batch after batch,
into a fresh inline :class:`~repro.service.PagingService` per pass.  Every
pass serves the same stream from an empty cache with the same seed, so
every pass must end with the same eviction cost.

The helpers here also serve the TCP workload, which replays the stream
its servers served through the same inline service to check its cost and
to price the in-process layers.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.service import PagingService, ServiceConfig, ShardEngine

from common import (
    SLO_MS,
    Checks,
    Metrics,
    SpanRecorder,
    WrappedRouter,
    median,
    peak_rss_mb_self,
    tail,
)
from workloads import SHAPES, make_inputs, policy_factory

#: Requests served with ``validate=True`` (per-request invariant checks).
VALIDATE_PREFIX = {"replay-zipf": 16384, "paper-multilevel": 256,
                   "serve-tcp": 16384}


def build_service(name: str, inst, seed: int, *, recorder=None,
                  validate: bool = False,
                  backend: str = "inline") -> PagingService:
    workload = SHAPES[name]
    return PagingService(ServiceConfig(
        instance=inst, policy_factory=policy_factory(name, recorder),
        n_shards=workload.n_shards, batch_size=workload.batch_size,
        seed=seed, validate=validate, backend=backend,
        policy_name=workload.policy,
    ))


def batches_of(pages, levels, size: int) -> list:
    return [(pages[lo:lo + size], levels[lo:lo + size])
            for lo in range(0, len(pages), size)]


class Pass:
    """One fresh service serving a batch list back to back.

    Keeps every batch's ``submit_batch`` wall time, in order.
    """

    __slots__ = ("setup_s", "wall_s", "lat", "cost", "n", "failed",
                 "svc", "recorder")

    def __init__(self, name: str, inst, seed: int, batches,
                 recorder: SpanRecorder | None = None) -> None:
        started = perf_counter()
        svc = build_service(name, inst, seed, recorder=recorder)
        self.setup_s = perf_counter() - started
        submit = svc.submit_batch
        if recorder is not None:
            svc.router = WrappedRouter(svc.router, recorder)
            submit = recorder.wrap("service.submit", submit)
        lat = self.lat = []
        failed = 0
        wall0 = perf_counter()
        for i, (p, lv) in enumerate(batches):
            if recorder is not None:
                recorder.batch = i
            t0 = perf_counter()
            ticket = submit(p, lv)
            lat.append(perf_counter() - t0)
            if not ticket.ok:
                failed += len(p)
        self.wall_s = perf_counter() - wall0
        self.cost = svc.total_cost()
        self.n = sum(len(p) for p, _ in batches)
        self.failed = failed
        self.svc = svc
        self.recorder = recorder


def traced_pass(name: str, inst, seed: int, batches) -> Pass:
    """A pass with spans around every call into a layer.

    ``ShardEngine`` has ``__slots__``, so its method is wrapped on the
    class, and only while this pass runs.
    """
    recorder = SpanRecorder()
    process = ShardEngine.process_batch
    ShardEngine.process_batch = recorder.wrap("engine.process_batch", process)
    try:
        return Pass(name, inst, seed, batches, recorder)
    finally:
        ShardEngine.process_batch = process


def setup_times(name: str, inst, seed: int, reps: int) -> list[float]:
    """Seconds to build the policy and service, ``reps`` times over."""
    out = []
    for _ in range(reps):
        started = perf_counter()
        build_service(name, inst, seed)
        out.append(perf_counter() - started)
    return out


def warm_up(name: str, inst, seed: int, batches) -> None:
    """Serve a short prefix once, so first-call costs stay out of passes."""
    Pass(name, inst, seed, batches[:64])


def check_validated_prefix(name: str, inst, seed: int, batches,
                           checks: Checks) -> None:
    """A prefix served with ``validate=True`` passes the per-request
    invariant checks and costs exactly what the fast path costs."""
    n, prefix = 0, []
    for p, lv in batches:
        if n >= VALIDATE_PREFIX[name]:
            break
        prefix.append((p, lv))
        n += len(p)
    checked = build_service(name, inst, seed, validate=True)
    try:
        for p, lv in prefix:
            checked.submit_batch(p, lv)
    except Exception as exc:  # any invariant error fails the check
        checks.expect(False, f"{name}: validate=True prefix failed: {exc!r}")
        return
    plain = Pass(name, inst, seed, prefix)
    checks.expect(checked.total_cost() == plain.cost,
                  f"{name}: validated prefix cost {checked.total_cost()!r} "
                  f"!= fast path {plain.cost!r}")


def lifecycle_threads(name: str, inst, seed: int, batches) -> tuple[float, int]:
    """Start a threaded service, serve a little, stop it.

    Returns ``(stop() seconds, repro-* threads still alive)``.
    """
    svc = build_service(name, inst, seed, backend="thread")
    svc.start()
    for p, lv in batches[:8]:
        svc.submit_batch(p, lv).wait(30.0)
    started = perf_counter()
    svc.stop(30.0)
    stop_s = perf_counter() - started
    left = [t for t in threading.enumerate() if t.name.startswith("repro-")]
    return stop_s, len(left)


#: The spans below the service's entry point that a pass of each policy
#: must record, at least one per batch.  Work none of them covers lands in
#: the self time of the root span, ``service.submit``, so only these count
#: towards ``trace.coverage_frac``.
LAYER_SPANS = {
    "waterfilling-kernel": ("service.route", "engine.process_batch",
                            "kernels.serve_batch"),
    "randomized-multilevel": ("service.route", "engine.process_batch",
                              "rounding.serve", "fractional.step"),
}


def layer_metrics(name: str, plain: list[Pass], traced: list[Pass],
                  m: Metrics, checks: Checks) -> None:
    """Per-layer metrics of the in-process layers, from the fastest traced
    pass (so the layers add up within one pass)."""
    best = min(traced, key=lambda p: p.wall_s)
    n = best.n
    selfs = best.recorder.self_times()
    counts = best.recorder.counts()
    layers = LAYER_SPANS[SHAPES[name].policy]
    n_batches = counts.get("service.submit", 0)
    for span in layers:
        checks.expect(counts.get(span, 0) >= n_batches > 0,
                      f"{name}: the traced pass recorded "
                      f"{counts.get(span, 0)} {span} spans for {n_batches} "
                      f"batches")

    def per_req_us(span: str) -> float:
        return selfs.get(span, 0.0) / n * 1e6

    snap = best.svc.snapshot()
    uses_kernel = "kernels.serve_batch" in counts
    m.set("kernels.busy_us_per_req", per_req_us("kernels.serve_batch"), "us")
    m.set("kernels.hit_ratio", snap.hit_rate if uses_kernel else 0.0, "ratio")
    m.set("kernels.evictions_per_req",
          sum(s.n_evictions for s in snap.shards) / n if uses_kernel
          else 0.0, "count")
    y_cost = sum(e.policy.extras().get("fractional_y_cost", 0.0)
                 for e in best.svc.engines)
    m.set("fractional.busy_us_per_req", per_req_us("fractional.step"), "us")
    m.set("fractional.y_cost_per_req", y_cost / n, "weight/req")
    m.set("rounding.busy_us_per_req", per_req_us("rounding.serve"), "us")
    m.set("rounding.loss_ratio",
          best.cost / y_cost if y_cost > 0 else 0.0, "ratio")
    m.set("engine.busy_us_per_req", per_req_us("engine.process_batch"), "us")
    m.set("engine.batch_size_mean", n / counts["engine.process_batch"],
          "count")
    m.set("service.submit_us_per_req", per_req_us("service.submit"), "us")
    m.set("service.route_us_per_req", per_req_us("service.route"), "us")
    m.set("service.queue_wait_ms_p50", 0.0, "ms")
    m.set("service.overloaded_frac",
          snap.n_overloaded / max(snap.n_submitted_batches, 1), "ratio")
    m.set("trace.overhead_frac",
          best.wall_s / min(p.wall_s for p in plain) - 1.0, "ratio")
    coverage = sum(selfs.get(span, 0.0) for span in layers) / best.wall_s
    m.set("trace.coverage_frac", coverage, "ratio")
    submit_share = selfs["service.submit"] / best.wall_s
    print(f"  {name}: layer spans cover {coverage:.3f} of a traced pass; "
          f"service.submit self time {submit_share:.3f}", flush=True)


#: Per-layer metrics of layers an in-process replay never reaches.
NOT_ON_PATH = (
    ("frame.encode_us_per_req", "us"),
    ("frame.decode_us_per_req", "us"),
    ("frame.bytes_per_req", "bytes"),
    ("netserver.request_ms_p50", "ms"),
    ("netserver.rejected_frac", "ratio"),
    ("client.rtt_ms_p50", "ms"),
    ("client.rtt_ms_tail", "ms"),
    ("client.wire_ms_p50", "ms"),
    ("proxy.added_ms_p50", "ms"),
    ("proxy.forwards_per_submit", "count"),
    ("proxy.retries_per_submit", "count"),
    ("rtrace.spans_per_req", "count"),
    ("rtrace.bytes_per_req", "bytes"),
    ("loadgen.late_ms_max", "ms"),
)


def run(name: str, seed: int, seconds: float, trace: bool,
        checks: Checks, out_dir) -> tuple[Metrics, int, int]:
    """Run one replay workload; returns ``(metrics, attempted, failed)``."""
    workload = SHAPES[name]
    inst, pages, levels = make_inputs(name, seed)
    batches = batches_of(pages, levels, workload.batch_size)
    warm_up(name, inst, seed, batches)
    plain: list[Pass] = []
    traced: list[Pass] = []
    deadline = perf_counter() + seconds
    setups: list[float] = []
    while len(plain) < 2 or perf_counter() < deadline:
        plain.append(Pass(name, inst, seed, batches))
        setups += [plain[-1].setup_s, *setup_times(name, inst, seed, 3)]
        if trace:
            traced.append(traced_pass(name, inst, seed, batches))
    costs = {p.cost for p in plain + traced}
    checks.expect(len(costs) == 1,
                  f"{name}: passes of one seed ended with different eviction "
                  f"costs {sorted(costs)!r}")
    if name == "replay-zipf":
        # Same stream, other batching: the kernel's batch path must make
        # the same decisions whatever the batch boundaries are.
        ref = Pass(name, inst, seed, batches_of(pages, levels, 4096))
        checks.expect(ref.cost == plain[0].cost,
                      f"{name}: served cost {plain[0].cost!r} != inline "
                      f"replay in 4096-request batches {ref.cost!r}")
    check_validated_prefix(name, inst, seed, batches, checks)
    n = len(pages)
    attempted = n * len(plain)
    failed = sum(p.failed for p in plain)
    m = Metrics()
    if trace:
        layer_metrics(name, plain, traced, m, checks)
        for metric, unit in NOT_ON_PATH:
            m.set(metric, 0.0, unit)
        # A closed loop offers exactly what it is served.
        m.set("loadgen.offered_req_s", max(n / p.wall_s for p in traced),
              "req/s")
        stop_s, left = lifecycle_threads(name, inst, seed, batches)
        m.set("lifecycle.stop_s", stop_s, "s")
        m.set("lifecycle.threads_left", left, "count")
        min(traced, key=lambda p: p.wall_s).recorder.write(
            out_dir / f"{name}-seed{seed}.spans.jsonl")
        return m, attempted, failed
    # Every figure is taken over a whole pass, all of its batches, and the
    # run reports its median pass.  Other tenants of the host change its
    # speed by up to 2x in spells of milliseconds to minutes; a run's
    # median pass moves least with them, and a slowdown of the program,
    # steady or intermittent, is inside every pass.
    tails = [tail([v * 1e3 for v in p.lat]) for p in plain]
    rate = median([n / sum(p.lat) for p in plain])
    tail_ms = median([t[0] for t in tails])
    print(f"  {len(plain)} passes of {n} requests in {len(plain[0].lat)} "
          f"batches; latency_tail_ms is a pass's p{tails[0][1]:g}; best "
          f"pass {max(n / sum(p.lat) for p in plain):,.0f} req/s",
          flush=True)
    m.set("setup_s", median(setups), "s")
    m.set("throughput_req_s", rate, "req/s")
    m.set("latency_p50_ms", median([median(p.lat) for p in plain]) * 1e3,
          "ms")
    m.set("latency_tail_ms", tail_ms, "ms")
    # One caller, back to back: the closed loop's only offered rate is
    # its own throughput.
    checks.expect(tail_ms <= SLO_MS,
                  f"{name}: latency tail {tail_ms:.3f} ms is beyond the "
                  f"{SLO_MS:g} ms limit")
    m.set("rate_at_slo_req_s", rate, "req/s")
    m.set("cost_per_req", plain[0].cost / n, "weight/req")
    m.set("served_frac", (attempted - failed) / attempted, "ratio")
    m.set("peak_rss_mb", peak_rss_mb_self(), "MB")
    return m, attempted, failed

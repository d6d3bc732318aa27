"""The network layers, priced by a traced open loop over loopback.

The traced run of ``replay-zipf`` sends the ``serve-tcp`` traffic shape
from one thread over one :class:`~repro.net.PagingClient` connection with
a bounded pipeline window into a `repro serve --listen` subprocess.
Every batch has a due time on a fixed schedule; its latency runs from the
due time to its ack, so a stall also charges the batches queued behind
it.  The generator sleeps only until a batch is due (and reaps acks while
it waits), never for a retry backoff.

The run sends fixed-size phases, so the served stream (and so its
eviction cost) is a pure function of the seed: a closed-loop warm-up,
then six rounds of a nominal block at one fixed offered rate (the server
histograms are read around these) and a saturation block, closed loop
with the window kept full.  It then sends the same traffic shape,
shorter, through ``repro cluster proxy`` over two backends with request
tracing armed, to price the proxy and trace-propagation layers.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from repro.net import PagingClient
from repro.net.frame import FrameDecoder, SubmitAck, SubmitBatch, encode
from repro.obs.federation import parse_exposition, scrape
from repro.obs.rtrace import RequestSampler

import replay
from common import Checks, Metrics, median, tail
from workloads import SHAPES, make_inputs

#: Client pipeline window, in batches.  It stays below the server's
#: per-connection in-flight cap (32) and shard queue depth (64), so no
#: batch is shed or refused by design; any that is counts as failed.
WINDOW = 8
NOMINAL_RATE = 50_000.0          # req/s, about half of saturation
SATURATION_RATE = 150_000.0      # req/s, sizes the saturation blocks only
TRACE_SAMPLE = 0.01              # request tracing behind the proxy
ROUNDS = 6
#: Phase lengths as shares of ``--seconds``: per nominal block and per
#: saturation block.
NOMINAL_BLOCK = 0.044
SATURATION_BLOCK = 0.015
SERVER_ARGS = ("--policy", "waterfilling-kernel", "--n-pages", "768",
               "--k", "512", "--levels", "2", "--requests", "1")
#: Per-layer metrics only a TCP run measures.
NETWORK_LAYERS = (
    "service.queue_wait_ms_p50", "frame.encode_us_per_req",
    "frame.decode_us_per_req", "frame.bytes_per_req",
    "netserver.request_ms_p50", "netserver.rejected_frac",
    "client.rtt_ms_p50", "client.rtt_ms_tail", "client.wire_ms_p50",
    "proxy.added_ms_p50", "proxy.forwards_per_submit",
    "proxy.retries_per_submit", "rtrace.spans_per_req",
    "rtrace.bytes_per_req", "loadgen.late_ms_max", "loadgen.offered_req_s",
)


class _Server:
    """One `python -m repro ...` subprocess, its log and address."""

    def __init__(self, root: Path, tmp: Path, tag: str, args: list) -> None:
        self.log_path = tmp / f"{tag}.log"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with self.log_path.open("w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args], cwd=root, env=env,
                stdout=log, stderr=subprocess.STDOUT)
        self.metrics_url = ""

    def wait_listening(self, timeout: float = 60.0) -> str:
        """The server's address, once it has printed it."""
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("metrics exposed at "):
                    self.metrics_url = line.split()[-1]
                if line.startswith("listening on "):
                    return line.split()[-1]
            if self.proc.poll() is not None:
                break
            sleep(0.002)
        raise RuntimeError(f"server did not start:\n"
                           f"{self.log_path.read_text()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class _Cluster:
    """The servers of one setup, plus the client connected to the front.

    ``proxied`` puts `repro cluster proxy` in front of two backends that
    own one shard each, with request tracing armed as in production;
    otherwise the client talks to one 2-shard `repro serve --listen`.
    """

    def __init__(self, root: Path, tmp: Path, seed: int, *,
                 proxied: bool) -> None:
        self.servers: list[_Server] = []
        self.backends: list[_Server] = []
        self.client: PagingClient | None = None
        self.span_dir = tmp / "spans"
        try:
            self._start(root, tmp, seed, proxied)
        except BaseException:
            self.kill()
            raise

    def _start(self, root, tmp, seed, proxied) -> None:
        metrics_args = ["--metrics-port", "0"]
        common = ["serve", "--listen", "127.0.0.1:0", *SERVER_ARGS,
                  "--seed", str(seed), "--shards", "2", *metrics_args]
        if not proxied:
            self.backends.append(self._spawn(root, tmp, "server", common))
        else:
            for i in range(2):
                self.backends.append(self._spawn(
                    root, tmp, f"backend{i}",
                    [*common, "--span-dir", str(self.span_dir / f"b{i}"),
                     "--trace-sample", str(TRACE_SAMPLE)]))
            addrs = [b.wait_listening() for b in self.backends]
            self._spawn(root, tmp, "proxy", [
                "cluster", "proxy", "--listen", "127.0.0.1:0",
                "--backends", ",".join(addrs), "--shards", "2",
                "--span-dir", str(self.span_dir / "proxy"), *metrics_args])
        self.client = PagingClient(self.servers[-1].wait_listening(),
                                   timeout=30.0)
        self.client.ping()

    def _spawn(self, root, tmp, tag, args) -> _Server:
        server = _Server(root, tmp, tag, args)
        self.servers.append(server)
        return server

    def kill(self) -> None:
        if self.client is not None:
            self.client.close()
        for s in self.servers:
            s.kill()

    def terminate(self) -> float:
        """SIGTERM every server at once; the slowest one's exit time (s)."""
        self.client.close()
        started = perf_counter()
        for s in self.servers:
            if s.proc.poll() is None:
                s.proc.send_signal(signal.SIGTERM)
        slowest = 0.0
        for s in self.servers:
            try:
                s.proc.wait(timeout=max(0.0, started + 20.0 - perf_counter()))
            except subprocess.TimeoutExpired:
                s.kill()
            slowest = max(slowest, perf_counter() - started)
        return slowest


class _LoadGen:
    """The open-loop generator over one connection.

    Every batch sent gets one record ``[due, sent, acked, status, b]``:
    times from ``perf_counter``, the final ack status and the batch's
    index in the stream.
    """

    def __init__(self, client: PagingClient, batches, seconds: float,
                 sampler=None) -> None:
        self.client = client
        self.batches = batches           # [(pages list, levels list)]
        self.seconds = seconds
        self.sampler = sampler
        self.records: list[list] = []    # every batch sent, in send order
        self._inflight: dict[int, list] = {}

    def _reap(self, timeout: float | None = None) -> None:
        try:
            rid, result = self.client.collect_any(timeout=timeout)
        except (TimeoutError, socket.timeout):
            return
        rec = self._inflight.pop(rid)
        rec[2] = perf_counter()
        rec[3] = result.status

    def phase(self, rate: float, share: float, *, paced: bool = True,
              probe=None) -> list[list]:
        """Send ``rate * share * seconds`` requests and reap them all.

        Paced batches are due ``size / rate`` apart; unpaced ones (a
        closed loop) are due when the window has room.  A ``probe`` reads
        the servers' metrics before and after the phase.
        """
        if probe is not None:
            probe.begin()
        client = self.client
        size = len(self.batches[0][0])
        recs = []
        t0 = perf_counter()
        for j in range(max(8, round(rate * share * self.seconds / size))):
            due = t0 + j * size / rate
            while paced:
                now = perf_counter()
                if now >= due:
                    break
                if client.inflight:
                    self._reap(due - now)
                else:
                    sleep(due - now)
            while client.inflight >= WINDOW:
                self._reap()
            b = len(self.records) % len(self.batches)
            pages, levels = self.batches[b]
            ctx = None
            if self.sampler is not None:
                ctx = self.sampler.context(len(self.records)).child("submit")
            sent = perf_counter()
            rid = client.submit_nowait(pages, levels, trace=ctx)
            rec = [due if paced else sent, sent, 0.0, "", b]
            self._inflight[rid] = rec
            self.records.append(rec)
            recs.append(rec)
        while client.inflight:
            self._reap()
        if probe is not None:
            probe.end()
        return recs

    def n_requests(self, recs, status: str | None = None) -> int:
        return sum(len(self.batches[r[4]][0]) for r in recs
                   if status is None or r[3] == status)

    def served_batches(self) -> list:
        """The batches the server served, in send order, as arrays."""
        return [(np.asarray(self.batches[r[4]][0], dtype=np.int64),
                 np.asarray(self.batches[r[4]][1], dtype=np.int64))
                for r in self.records if r[3] == "ok"]


def _latencies_ms(recs) -> list[float]:
    return [(r[2] - r[0]) * 1e3 for r in recs]


def _rtt_ms(blocks) -> list[float]:
    return [(r[2] - r[1]) * 1e3 for block in blocks for r in block]


def _check_served(name, inst, seed, gen: _LoadGen, snap: dict,
                  checks: Checks, where: str) -> replay.Pass:
    """The served cost must equal an inline replay of the served stream.

    A ``failed`` ack may leave its batch partly applied, which no replay
    can reproduce, so any such ack fails a check of its own.
    """
    n_failed = sum(r[3] == "failed" for r in gen.records)
    checks.expect(n_failed == 0, f"{name} ({where}): {n_failed} batches "
                                 f"acked 'failed'")
    served = gen.served_batches()
    replay.warm_up(name, inst, seed, served)
    ref = replay.Pass(name, inst, seed, served)
    checks.expect(snap["eviction_cost"] == ref.cost,
                  f"{name} ({where}): served cost {snap['eviction_cost']!r} "
                  f"!= inline replay of the served stream {ref.cost!r}")
    checks.expect(snap["n_requests"] == ref.n,
                  f"{name} ({where}): the server counted "
                  f"{snap['n_requests']} requests, the client had {ref.n} "
                  f"acked ok")
    replay.check_validated_prefix(name, inst, seed, served, checks)
    return ref


def run(seed: int, seconds: float, checks: Checks, root: Path,
        out_dir: Path) -> tuple[Metrics, int, int]:
    """The traced ``serve-tcp`` run; returns ``(metrics, attempted,
    failed)`` with the network layers' metrics."""
    name = "serve-tcp"
    inst, pages, levels = make_inputs(name, seed)
    size = SHAPES[name].batch_size
    batches = [(pages[lo:lo + size].tolist(), levels[lo:lo + size].tolist())
               for lo in range(0, len(pages), size)]
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    clusters: list[_Cluster] = []
    try:
        clusters.append(_Cluster(root, tmp, seed, proxied=False))
        cluster = clusters[-1]
        gen = _LoadGen(cluster.client, batches, seconds)
        gen.phase(SATURATION_RATE, 0.02, paced=False)       # warm-up
        probe = _Probe(cluster.backends)
        nominal = []
        # Each round is a nominal block and a saturation block, so the
        # nominal blocks sample the whole run.
        for _ in range(ROUNDS):
            nominal.append(gen.phase(NOMINAL_RATE, NOMINAL_BLOCK,
                                     probe=probe))
            gen.phase(SATURATION_RATE, SATURATION_BLOCK, paced=False)
        snap = cluster.client.snapshot()
        probe.final = _exposition(cluster.backends)
        stop_s = cluster.terminate()
        n_sent = gen.n_requests(gen.records)
        n_ok = gen.n_requests(gen.records, "ok")
        ref = _check_served(name, inst, seed, gen, snap, checks, "direct")
        m = Metrics()
        traced = replay.traced_pass(name, inst, seed, gen.served_batches())
        replay.layer_metrics(name, [ref], [traced], m, checks)
        _server_layers(probe, snap, nominal, gen, m)
        proxy_stop_s = _proxy_layers(name, inst, seed, root, tmp, gen,
                                     nominal, checks, clusters, m)
        m.set("lifecycle.stop_s", max(stop_s, proxy_stop_s), "s")
        _, left = replay.lifecycle_threads(name, inst, seed,
                                           gen.served_batches())
        m.set("lifecycle.threads_left", left, "count")
        traced.recorder.write(out_dir / f"{name}-seed{seed}.spans.jsonl")
        return m, n_sent, n_sent - n_ok
    finally:
        for c in clusters:
            c.kill()
        shutil.rmtree(tmp, ignore_errors=True)


# -- per-layer metrics of the traced run ---------------------------------------
class _Probe:
    """Server histograms over the nominal blocks only (traced runs)."""

    FAMILIES = ("repro_net_request_seconds", "repro_batch_latency_seconds")

    def __init__(self, servers) -> None:
        self.servers = servers
        self.counts = {f: {} for f in self.FAMILIES}
        self._before: dict = {}
        self.final: dict = {}

    def begin(self) -> None:
        self._before = _exposition(self.servers)

    def end(self) -> None:
        after = _exposition(self.servers)
        for family, counts in self.counts.items():
            before = _buckets(self._before, family)
            for le, n in _buckets(after, family).items():
                counts[le] = counts.get(le, 0.0) + n - before.get(le, 0.0)


def _exposition(servers) -> dict:
    """The servers' /metrics pages, parsed: family name -> samples."""
    merged: dict[str, list] = {}
    for server in servers:
        for fam_name, fam in parse_exposition(
                scrape(server.metrics_url, timeout=10.0)).items():
            merged.setdefault(fam_name, []).extend(fam.samples)
    return merged


def _total(page: dict, family: str, **labels) -> float:
    want = set(labels.items())
    return sum(v for name, lab, v in page.get(family, ())
               if name == family and want <= set(lab))


def _buckets(page: dict, family: str) -> dict[float, float]:
    out: dict[float, float] = {}
    for name, labels, value in page.get(family, ()):
        if name == f"{family}_bucket":
            le = float(dict(labels)["le"])
            out[le] = out.get(le, 0.0) + value
    return out


def _histogram_p50_ms(counts: dict[float, float]) -> float:
    """Median of cumulative bucket counts, interpolated in its bucket."""
    rank = counts[float("inf")] / 2.0
    lo_bound = lo_count = 0.0
    for bound in sorted(counts):
        if counts[bound] >= rank:
            if bound == float("inf"):
                return lo_bound * 1e3
            share = (rank - lo_count) / max(counts[bound] - lo_count, 1e-12)
            return (lo_bound + (bound - lo_bound) * share) * 1e3
        lo_bound, lo_count = bound, counts[bound]
    return lo_bound * 1e3


def _codec(gen: _LoadGen) -> tuple[float, float, float]:
    """Codec cost of this run's frames: one submit and one ack per batch.

    Re-encodes and re-decodes the first 256 batches the run sent.
    Returns per-request encode µs, decode µs and bytes.
    """
    enc = dec = 0.0
    n_bytes = n_req = 0
    for i, rec in enumerate(gen.records[:256]):
        pages, levels = gen.batches[rec[4]]
        t0 = perf_counter()
        frames = encode(SubmitBatch(i + 1, pages, levels))
        frames += encode(SubmitAck(i + 1, "ok", len(pages)))
        t1 = perf_counter()
        FrameDecoder().feed(frames)
        dec += perf_counter() - t1
        enc += t1 - t0
        n_bytes += len(frames)
        n_req += len(pages)
    return enc / n_req * 1e6, dec / n_req * 1e6, n_bytes / n_req


def _server_layers(probe: _Probe, snap: dict, blocks, gen: _LoadGen,
                   m: Metrics) -> None:
    """Server-side and wire per-layer metrics of the direct run.

    ``blocks`` are the nominal-rate phases; the server histograms in
    ``probe`` cover exactly those.
    """
    request_p50 = _histogram_p50_ms(
        probe.counts["repro_net_request_seconds"])
    # Server time a nominal request spends beyond its shard's batch time
    # is queueing and handoff.
    m.set("service.queue_wait_ms_p50", request_p50 - _histogram_p50_ms(
        probe.counts["repro_batch_latency_seconds"]), "ms")
    m.set("service.overloaded_frac",
          snap["n_overloaded"] / max(snap["n_submitted_batches"], 1), "ratio")
    enc, dec, n_bytes = _codec(gen)
    m.set("frame.encode_us_per_req", enc, "us")
    m.set("frame.decode_us_per_req", dec, "us")
    m.set("frame.bytes_per_req", n_bytes, "bytes")
    m.set("netserver.request_ms_p50", request_p50, "ms")
    submits = _total(probe.final, "repro_net_requests_total", kind="submit")
    rejected = sum(_total(probe.final, f) for f in (
        "repro_net_shed_total", "repro_net_overloaded_total",
        "repro_net_deadline_drops_total"))
    m.set("netserver.rejected_frac", rejected / max(submits, 1.0), "ratio")
    rtt = _rtt_ms(blocks)
    m.set("client.rtt_ms_p50", median(rtt), "ms")
    m.set("client.rtt_ms_tail", tail(rtt)[0], "ms")
    m.set("client.wire_ms_p50", median(rtt) - request_p50, "ms")
    m.set("loadgen.late_ms_max",
          max((r[1] - r[0]) * 1e3 for block in blocks for r in block), "ms")
    m.set("loadgen.offered_req_s", median([
        gen.n_requests(block[:-1]) / (block[-1][1] - block[0][1])
        for block in blocks]), "req/s")


def _proxy_layers(name, inst, seed, root, tmp, direct: _LoadGen,
                  direct_nominal, checks: Checks, clusters: list,
                  m: Metrics) -> float:
    """Send two nominal blocks and a saturation block through the proxy.

    ``direct_nominal`` are the direct run's nominal blocks, the baseline
    of ``proxy.added_ms_p50``.  Returns the slowest SIGTERM-to-exit time
    of the proxied servers.
    """
    seg_dir = tmp / "proxied"
    seg_dir.mkdir()
    cluster = _Cluster(root, seg_dir, seed, proxied=True)
    clusters.append(cluster)
    gen = _LoadGen(cluster.client, direct.batches, direct.seconds,
                     RequestSampler(seed=seed, sample=TRACE_SAMPLE))
    gen.phase(SATURATION_RATE, 0.02, paced=False)           # warm-up
    nominal = [gen.phase(NOMINAL_RATE, NOMINAL_BLOCK) for _ in range(2)]
    gen.phase(SATURATION_RATE, SATURATION_BLOCK, paced=False)
    snap = cluster.client.snapshot()
    proxy = _exposition(cluster.servers[-1:])
    stop_s = cluster.terminate()
    _check_served(name, inst, seed, gen, snap, checks, "through the proxy")
    front = _total(proxy, "repro_proxy_submits_total")
    m.set("proxy.added_ms_p50",
          median(_rtt_ms(nominal)) - median(_rtt_ms(direct_nominal)), "ms")
    m.set("proxy.forwards_per_submit",
          _total(proxy, "repro_proxy_forwards_total") / front, "count")
    # Every overloaded answer a backend gives the proxy is retried.
    m.set("proxy.retries_per_submit", snap["n_overloaded"] / front, "count")
    files = sorted(cluster.span_dir.rglob("*.jsonl"))
    n = snap["n_requests"]
    m.set("rtrace.spans_per_req",
          sum(len(f.read_text().splitlines()) for f in files) / n, "count")
    m.set("rtrace.bytes_per_req", sum(f.stat().st_size for f in files) / n,
          "bytes")
    return stop_s

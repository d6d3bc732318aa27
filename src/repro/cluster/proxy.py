"""ClusterProxy: one wire-protocol front door over N ``repro serve`` backends.

The proxy speaks the exact :mod:`repro.net` frame protocol on its front
side — :func:`~repro.net.run_network_load`, :class:`~repro.net.PagingClient`
and the CLI all work against it unchanged — and consistent-hashes each
submit's pages across the backends named by its :class:`ClusterMap`:

* pages hash to **cluster shards** with the same splitmix64
  :class:`~repro.service.router.ShardRouter` every backend uses
  internally, so a page lands on the same shard engine no matter which
  backend currently owns that shard;
* each front submit is split into per-backend parts (arrival order
  preserved within each part), pipelined to the backends over dedicated
  :class:`~repro.net.PagingClient` channels, and the part acks are merged
  into exactly one front :class:`~repro.net.frame.SubmitAck`;
* ``overloaded`` part answers are retried against the (possibly new)
  owner with capped backoff; a dead backend connection is re-dialed via
  :meth:`~repro.net.PagingClient.reconnect` and its in-flight parts
  resubmitted, so a backend restart costs latency, not tickets.

Concurrency model (all plain threads, mirroring the sync client): one
accept thread, one reader thread per front connection, and per
(connection, backend) one *channel* thread owning that backend's client —
clients are single-threaded by contract, so the channel both submits and
collects.  Routing state lives in a :class:`RoutingTable` shared by all
connections; its per-shard hold gates + in-flight counts give migration
its no-ticket-dropped guarantee (see :mod:`repro.cluster.migrate`).
"""

from __future__ import annotations

import contextlib
import queue as _queue
import socket
import threading
from time import monotonic, sleep

import numpy as np

from repro.cluster.map import ClusterMap
from repro.cluster.migrate import migrate_shard
from repro.errors import (
    FrameError,
    MigrationError,
    ServiceConfigError,
    ServiceStateError,
)
from repro.net.client import PagingClient, RemoteError
from repro.net.frame import (
    DEFAULT_MAX_FRAME_BYTES,
    ClusterStatus,
    ClusterStatusReply,
    Drain,
    DrainReply,
    Error,
    FrameDecoder,
    MoveShard,
    MoveShardReply,
    Ping,
    Pong,
    Snapshot,
    SnapshotReply,
    SubmitAck,
    SubmitBatch,
    encode,
)
from repro.obs.registry import null_registry
from repro.obs.rtrace import SpanExporter, TraceContext, flight_recorder
from repro.service.router import ShardRouter

__all__ = ["ClusterProxy", "RoutingTable"]

#: Backoff ceiling for per-part overload retries (the client's policy).
_BACKOFF_CAP_S = 0.05
#: How long a channel poll blocks before re-checking its work queue.
_POLL_S = 0.02

#: Severity order for merging part statuses into one front ack: the
#: merged status is the worst part status ("ok" only when every part ok).
_STATUS_RANK = {"ok": 0, "overloaded": 1, "shed": 2, "deadline": 3,
                "failed": 4}


class RoutingTable:
    """Shared, lockable routing state: the live map + migration gates.

    Admission protocol: a submit calls :meth:`admit` with the distinct
    shards it touches, which blocks while any of them is *held* by a
    migration and otherwise atomically (a) re-checks the holds, (b)
    increments the shards' in-flight counts and (c) returns the map to
    route by.  The migrator's counterpart — :meth:`hold` then
    :meth:`wait_shard_idle` — therefore observes a shard with zero
    in-flight submits only when no admitted submit can still reach the
    old owner, which is exactly the no-lost-update condition.
    """

    def __init__(self, cluster_map: ClusterMap) -> None:
        self._map = cluster_map
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: set() = open for traffic; clear() = held by a migration.
        self._holds = [threading.Event() for _ in range(cluster_map.n_shards)]
        for event in self._holds:
            event.set()
        self._inflight = [0] * cluster_map.n_shards
        #: Serializes migrations (one shard moves at a time).
        self.migration_lock = threading.Lock()

    @property
    def map(self) -> ClusterMap:
        """The current cluster map (immutable; safe to use lock-free)."""
        with self._lock:
            return self._map

    # -- submit side -------------------------------------------------------
    def admit(self, shards, timeout: float | None) -> ClusterMap | None:
        """Gate one submit touching ``shards``; None when holds timed out.

        On success the shards' in-flight counts are incremented and the
        map that routing must use is returned — reading the map *inside*
        the same critical section as the increment is what makes the
        flip in :meth:`reassign` atomic from the submit's point of view.
        """
        deadline = None if timeout is None else monotonic() + timeout
        while True:
            for s in shards:
                remaining = (None if deadline is None
                             else max(0.0, deadline - monotonic()))
                if not self._holds[s].wait(remaining):
                    return None
            with self._cond:
                if all(self._holds[s].is_set() for s in shards):
                    for s in shards:
                        self._inflight[s] += 1
                    return self._map
            # A migration grabbed a shard between the wait and the lock;
            # go around and wait for it to finish.

    def finish(self, shards) -> None:
        """Release one admitted submit's in-flight slots."""
        with self._cond:
            for s in shards:
                self._inflight[s] -= 1
            self._cond.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no admitted submit is in flight anywhere."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not any(self._inflight), timeout)

    # -- migration side ----------------------------------------------------
    def hold(self, shard: int) -> None:
        """Park new submits touching ``shard`` (they block in admit)."""
        with self._cond:
            self._holds[shard].clear()

    def release(self, shard: int) -> None:
        """Reopen ``shard`` for traffic."""
        with self._cond:
            self._holds[shard].set()

    def wait_shard_idle(self, shard: int, timeout: float | None) -> bool:
        """Block until every admitted submit touching ``shard`` finished."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight[shard] == 0, timeout)

    def reassign(self, shard: int, target: str) -> ClusterMap:
        """Flip one shard's owner; returns the new (epoch-bumped) map."""
        with self._cond:
            self._map = self._map.with_owner(shard, target)
            return self._map


class _Work:
    """One per-backend part of one front submit."""

    __slots__ = ("pending", "pages", "levels", "attempts", "trace")

    def __init__(self, pending: "_FrontPending", pages: tuple, levels: tuple,
                 trace: TraceContext | None = None) -> None:
        self.pending = pending
        self.pages = pages
        self.levels = levels
        self.attempts = 0
        #: Trace context forwarded to the owning backend (None = untraced).
        self.trace = trace


class _FrontPending:
    """Merges per-backend part acks into one front SubmitAck."""

    __slots__ = ("conn", "id", "n_requests", "shards", "table",
                 "_remaining", "_status", "_shard", "_detail", "_lock")

    def __init__(self, conn: "_FrontConn", request_id: int, n_requests: int,
                 n_parts: int, shards, table: RoutingTable) -> None:
        self.conn = conn
        self.id = request_id
        self.n_requests = n_requests
        self.shards = shards
        self.table = table
        self._remaining = n_parts
        self._status = "ok"
        self._shard = -1
        self._detail = ""
        self._lock = threading.Lock()

    def part_done(self, status: str, shard: int = -1, detail: str = "") -> None:
        """Fold one part's terminal status; the last part sends the ack."""
        with self._lock:
            if _STATUS_RANK.get(status, 5) > _STATUS_RANK.get(self._status, 0):
                self._status = status
                self._shard = shard
                self._detail = detail
            self._remaining -= 1
            fire = self._remaining == 0
        if fire:
            # Release the routing slots *before* the ack write: a client
            # that reacts instantly (migrate-on-ack tests do) must see
            # the table already idle.
            self.table.finish(self.shards)
            self.conn.send(SubmitAck(
                self.id, self._status, self.n_requests,
                shard=self._shard, detail=self._detail))


class _FrontConn:
    """One accepted front socket plus its write lock."""

    __slots__ = ("sock", "open", "_wlock")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.open = True
        self._wlock = threading.Lock()

    def send(self, msg) -> None:
        data = encode(msg, max_frame_bytes=2**31 - 1)
        with self._wlock:
            if not self.open:
                return
            try:
                self.sock.sendall(data)
            except OSError:
                self.open = False


class _BackendChannel:
    """One connection-private pipeline to one backend.

    Owns the only thread that ever touches its :class:`PagingClient`.
    The loop drains its work queue up to ``window`` submits in flight,
    reaps acks as they arrive, retries ``overloaded`` parts with capped
    backoff, and on a transport error re-dials and resubmits everything
    outstanding — parts are only ever resolved by a terminal ack.
    """

    def __init__(self, address: str, *, window: int, retries: int,
                 retry_backoff: float, timeout: float, on_forward) -> None:
        self.address = address
        self.window = window
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.client = PagingClient(address, timeout=timeout, retries=retries,
                                   retry_backoff=retry_backoff)
        self._on_forward = on_forward
        self._q: _queue.Queue[_Work] = _queue.Queue()
        self._outstanding: dict[int, _Work] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-proxy-ch-{address}", daemon=True)
        self._thread.start()

    def enqueue(self, work: _Work) -> None:
        self._q.put(work)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(5.0)
        self.client.close()

    # -- channel loop ------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._pump()
            except (OSError, ConnectionError, RemoteError) as exc:
                self._recover(exc)

    def _pump(self) -> None:
        moved = False
        while (len(self._outstanding) < self.window
               and not self._q.empty()):
            try:
                work = self._q.get_nowait()
            except _queue.Empty:
                break
            self._submit(work)
            moved = True
        if self._outstanding:
            try:
                rid, result = self.client.collect_any(timeout=_POLL_S)
            except (TimeoutError, socket.timeout):
                return
            work = self._outstanding.pop(rid)
            if result.retryable and work.attempts < self.retries:
                work.attempts += 1
                sleep(min(self.retry_backoff * 2 ** (work.attempts - 1),
                          _BACKOFF_CAP_S))
                self._submit(work)
                return
            work.pending.part_done(result.status, result.ack.shard,
                                   result.ack.detail)
        elif not moved:
            # Idle: block briefly on the queue so stop() stays responsive.
            try:
                work = self._q.get(timeout=0.1)
            except _queue.Empty:
                return
            self._submit(work)

    def _submit(self, work: _Work) -> None:
        rid = self.client.submit_nowait(work.pages, work.levels,
                                        trace=work.trace)
        self._outstanding[rid] = work
        self._on_forward(self.address)

    def _recover(self, exc: BaseException) -> None:
        """Re-dial a dead backend and resubmit everything outstanding."""
        if isinstance(exc, RemoteError) and exc.request_id != 0:
            # A per-request typed error is terminal for that part, not a
            # transport failure.
            work = self._outstanding.pop(exc.request_id, None)
            if work is not None:
                work.pending.part_done("failed", detail=str(exc))
            return
        works = list(self._outstanding.values())
        self._outstanding.clear()
        while not self._stop.is_set():
            try:
                self.client.reconnect()
                break
            except OSError:
                sleep(0.05)
        else:
            for work in works:
                work.pending.part_done("failed",
                                       detail=f"backend {self.address} lost")
            return
        for work in works:
            self._submit(work)


class ClusterProxy:
    """A threaded TCP front door routing the wire protocol over a cluster.

    ``start()`` binds the listener and returns once the port is known;
    ``stop()`` closes the listener, then the front connections and their
    backend channels.  The proxy never owns the backends' lifecycles —
    they are independent ``repro serve`` processes.
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        window: int = 16,
        retries: int = 8,
        retry_backoff: float = 0.002,
        timeout: float = 30.0,
        hold_timeout: float = 60.0,
        migration_timeout: float = 60.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        registry=None,
        span_exporter: SpanExporter | None = None,
    ) -> None:
        if window < 1:
            raise ServiceConfigError(f"window must be >= 1, got {window}")
        #: Optional exporter for ``proxy``-tier spans (admit + per-part
        #: forward); incoming contexts are forwarded to backends either
        #: way, so tracing composes across tiers without proxy recording.
        self._spans = span_exporter
        self._submit_seq = 0
        self._seq_lock = threading.Lock()
        self.table = RoutingTable(cluster_map)
        self.router = ShardRouter(cluster_map.n_shards)
        self.window = window
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout
        self.hold_timeout = hold_timeout
        self.migration_timeout = migration_timeout
        self.max_frame_bytes = max_frame_bytes
        self._host = host
        self._requested_port = port
        reg = registry if registry is not None else null_registry()
        self._m_connections = reg.counter(
            "repro_proxy_connections_total", "Front connections accepted")
        self._m_submits = reg.counter(
            "repro_proxy_submits_total", "Front submits received")
        self._m_forwards = reg.counter(
            "repro_proxy_forwards_total",
            "Parts forwarded to backends", ("backend",))
        self._m_migrations = reg.counter(
            "repro_proxy_migrations_total", "Shard migrations completed")
        self._m_migrating = reg.gauge(
            "repro_proxy_migrations_inflight", "Migrations currently running")
        self._m_epoch = reg.gauge(
            "repro_proxy_epoch", "Current cluster map epoch")
        self._m_epoch.set(cluster_map.epoch)
        self.n_migrations = 0
        self._listener: socket.socket | None = None
        self._port: int | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        return self._port if self._port is not None else self._requested_port

    @property
    def host(self) -> str:
        return self._host

    @property
    def address(self) -> str:
        """``host:port`` as accepted by :class:`~repro.net.PagingClient`."""
        return f"{self._host}:{self.port}"

    def start(self, *, check_backends: bool = True) -> "ClusterProxy":
        """Bind the front listener (optionally pinging every backend first)."""
        if self._listener is not None:
            raise ServiceStateError("cluster proxy already started")
        if check_backends:
            for backend in self.table.map.backends:
                with PagingClient(backend, timeout=self.timeout) as probe:
                    probe.ping()
        listener = socket.create_server(
            (self._host, self._requested_port), backlog=64)
        self._port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-proxy-accept", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Close the listener, then every front connection (idempotent)."""
        if self._listener is None:
            return
        self._stopping.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the join below returns at once.
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
            self._accept_thread = None
        with self._lock:
            threads = list(self._conn_threads)
        for t in threads:
            t.join(timeout)
        self._listener = None

    def __enter__(self) -> "ClusterProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept / per-connection loops -------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._m_connections.inc()
            thread = threading.Thread(
                target=self._serve_front, args=(sock,),
                name="repro-proxy-conn", daemon=True)
            with self._lock:
                self._conn_threads.append(thread)
            thread.start()

    def _serve_front(self, sock: socket.socket) -> None:
        conn = _FrontConn(sock)
        channels: dict[str, _BackendChannel] = {}
        decoder = FrameDecoder(max_frame_bytes=self.max_frame_bytes)
        sock.settimeout(0.25)
        try:
            while not self._stopping.is_set():
                try:
                    data = sock.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                for event in decoder.feed(data):
                    if isinstance(event, FrameError):
                        conn.send(Error(0, event.code, str(event)))
                        continue
                    self._dispatch(conn, channels, event)
        finally:
            conn.open = False
            for channel in channels.values():
                channel.stop()
            with contextlib.suppress(OSError):
                sock.close()

    def _channel(self, channels: dict, address: str) -> _BackendChannel:
        channel = channels.get(address)
        if channel is None:
            channel = _BackendChannel(
                address, window=self.window, retries=self.retries,
                retry_backoff=self.retry_backoff, timeout=self.timeout,
                on_forward=lambda a: self._m_forwards.labels(a).inc())
            channels[address] = channel
        return channel

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, conn: _FrontConn, channels: dict, msg) -> None:
        if isinstance(msg, SubmitBatch):
            self._dispatch_submit(conn, channels, msg)
        elif isinstance(msg, Ping):
            conn.send(Pong(msg.id))
        elif isinstance(msg, Snapshot):
            self._dispatch_snapshot(conn, msg)
        elif isinstance(msg, Drain):
            self._dispatch_drain(conn, msg)
        elif isinstance(msg, ClusterStatus):
            conn.send(ClusterStatusReply(msg.id, self.status()))
        elif isinstance(msg, MoveShard):
            self._dispatch_move(conn, msg)
        else:
            conn.send(Error(msg.id, "bad_request",
                            f"unexpected {msg.type} message"))

    def _dispatch_submit(self, conn: _FrontConn, channels: dict,
                         msg: SubmitBatch) -> None:
        self._m_submits.inc()
        pages = np.asarray(msg.pages, dtype=np.int64)
        if pages.size == 0:
            conn.send(SubmitAck(msg.id, "ok", 0))
            return
        levels = (np.asarray(msg.levels, dtype=np.int64) if msg.levels
                  else np.ones_like(pages))
        owners = self.router.shards_of(pages)
        shards = [int(s) for s in np.unique(owners)]
        cmap = self.table.admit(shards, self.hold_timeout)
        if cmap is None:
            conn.send(SubmitAck(
                msg.id, "overloaded", int(pages.size),
                detail="shard held by migration beyond hold_timeout"))
            return
        # Group the touched shards by owning backend; each group becomes
        # one part, its pages kept in arrival order (boolean masks are
        # order-preserving), so per-shard request order is untouched.
        by_backend: dict[str, list[int]] = {}
        for s in shards:
            by_backend.setdefault(cmap.owner_of(s), []).append(s)
        ctx = (TraceContext.from_wire(msg.trace)
               if msg.trace is not None else None)
        admit_ctx = ctx
        if ctx is not None and self._spans is not None:
            with self._seq_lock:
                t = self._submit_seq
                self._submit_seq += 1
            admit_ctx = self._spans.emit(
                ctx, "admit", tier="proxy", t=t,
                attrs={"n_requests": int(pages.size),
                       "n_backends": len(by_backend)})
        pending = _FrontPending(conn, msg.id, int(pages.size),
                                len(by_backend), shards, self.table)
        for idx, (backend, owned) in enumerate(by_backend.items()):
            mask = np.isin(owners, owned)
            part_pages = tuple(int(p) for p in pages[mask])
            fwd_ctx = admit_ctx
            if admit_ctx is not None and self._spans is not None:
                fwd_ctx = self._spans.emit(
                    admit_ctx, "forward", tier="proxy", t=t, index=idx,
                    attrs={"backend": backend,
                           "n_requests": len(part_pages)})
            work = _Work(pending, part_pages,
                         tuple(int(v) for v in levels[mask]),
                         trace=fwd_ctx)
            self._channel(channels, backend).enqueue(work)

    def _dispatch_snapshot(self, conn: _FrontConn, msg: Snapshot) -> None:
        cmap = self.table.map
        try:
            per_backend = {
                backend: self._backend_call(backend,
                                            lambda c: c.snapshot())
                for backend in cmap.backends
            }
        except (OSError, RemoteError) as exc:
            conn.send(Error(msg.id, "unavailable",
                            f"backend snapshot failed: {exc}"))
            return
        conn.send(SnapshotReply(msg.id, self._merge_snapshots(
            cmap, per_backend)))

    def _dispatch_drain(self, conn: _FrontConn, msg: Drain) -> None:
        deadline = (None if msg.timeout is None
                    else monotonic() + msg.timeout)

        def remaining() -> float | None:
            if deadline is None:
                return None
            return max(0.0, deadline - monotonic())

        ok = self.table.wait_idle(remaining())
        if ok:
            for backend in self.table.map.backends:
                try:
                    ok = self._backend_call(
                        backend, lambda c: c.drain(remaining())) and ok
                except (OSError, RemoteError) as exc:
                    conn.send(Error(msg.id, "unavailable",
                                    f"backend drain failed: {exc}"))
                    return
        conn.send(DrainReply(msg.id, bool(ok)))

    def _dispatch_move(self, conn: _FrontConn, msg: MoveShard) -> None:
        try:
            result = self.migrate(msg.shard, msg.target)
        except (ValueError, ServiceConfigError) as exc:
            conn.send(Error(msg.id, "bad_request", str(exc)))
            return
        except (MigrationError, OSError, RemoteError) as exc:
            conn.send(MoveShardReply(
                msg.id, msg.shard, ok=False, target=msg.target,
                epoch=self.table.map.epoch, detail=str(exc)))
            return
        conn.send(MoveShardReply(
            msg.id, msg.shard, ok=True, source=result["source"],
            target=result["target"], epoch=result["epoch"],
            detail=result["detail"]))

    # -- backend helpers ---------------------------------------------------
    def _backend_call(self, address: str, fn):
        """Run one control-plane call on an ephemeral backend client."""
        with PagingClient(address, timeout=self.timeout) as client:
            return fn(client)

    @staticmethod
    def _merge_snapshots(cmap: ClusterMap, per_backend: dict) -> dict:
        """One service-shaped snapshot: each shard from its current owner.

        Backends replicate the full shard set, so every backend reports
        every shard; only the owner's copy carries that shard's live
        state (the others are idle or stale post-migration).  Service-wide
        ingest counters are summed across backends.
        """
        shard_dicts = []
        for shard in range(cmap.n_shards):
            owner = per_backend[cmap.owner_of(shard)]
            shard_dicts.append(next(
                s for s in owner["shards"] if s["shard"] == shard))
        n_requests = sum(s["n_requests"] for s in shard_dicts)
        n_hits = sum(s["n_hits"] for s in shard_dicts)
        cost_by_level: dict[str, float] = {}
        for s in shard_dicts:
            for level, cost in s["cost_by_level"].items():
                cost_by_level[level] = cost_by_level.get(level, 0.0) + cost
        return {
            "n_requests": n_requests,
            "n_hits": n_hits,
            "n_misses": sum(s["n_misses"] for s in shard_dicts),
            "hit_rate": (n_hits / n_requests) if n_requests else 0.0,
            "eviction_cost": sum(s["eviction_cost"] for s in shard_dicts),
            "cost_by_level": cost_by_level,
            "n_overloaded": sum(b["n_overloaded"]
                                for b in per_backend.values()),
            "n_submitted_batches": sum(b["n_submitted_batches"]
                                       for b in per_backend.values()),
            "n_worker_restarts": sum(b["n_worker_restarts"]
                                     for b in per_backend.values()),
            "n_failed_shards": sum(b["n_failed_shards"]
                                   for b in per_backend.values()),
            "n_faults_injected": sum(b["n_faults_injected"]
                                     for b in per_backend.values()),
            "shards": shard_dicts,
            "cluster": cmap.to_dict(),
        }

    # -- control plane -----------------------------------------------------
    def status(self) -> dict:
        """The live map plus proxy-side counters (ClusterStatus payload)."""
        payload = self.table.map.to_dict()
        payload["n_migrations"] = self.n_migrations
        return payload

    def migrate(self, shard: int, target: str) -> dict:
        """Live-migrate ``shard`` to ``target``; returns the outcome dict.

        Delegates to :func:`repro.cluster.migrate_shard` with this
        proxy's routing table, so in-flight tickets finish on the old
        owner before the state moves and new ones only unblock once
        routing points at the new owner.
        """
        self._m_migrating.set(1)
        try:
            result = migrate_shard(
                self.table, shard, target, timeout=self.migration_timeout)
        except MigrationError:
            # Preserve the last spans' worth of context for the post-mortem
            # before the error propagates to the mover.
            flight_recorder().dump(f"migration-error-shard-{shard}")
            raise
        finally:
            self._m_migrating.set(0)
        if result["moved"]:
            self.n_migrations += 1
            self._m_migrations.inc()
            self._m_epoch.set(result["epoch"])
        return result

    def __repr__(self) -> str:
        state = "serving" if self._listener is not None else "stopped"
        return f"ClusterProxy({self.address}, {state}, {self.table.map!r})"

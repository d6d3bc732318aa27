"""The verifying simulator.

The simulator owns the authoritative cache, drives a policy over a request
sequence, and — unlike a trusting replay loop — *verifies* the model's
invariants after every request:

* the request is actually served,
* the cache holds at most ``k`` copies / pages,
* (multi-level) at most one copy per page, levels in range.

A policy that cheats raises :class:`~repro.errors.CacheInvariantError`
immediately, with the failing time step in the message.  Pass
``validate=False`` on hot benchmark paths: the fast loop skips every
per-request invariant check and batches the hit/miss accounting, so the
only per-request work left is the serve call plus one dict lookup — or,
for the columnar kernels, none at all (``serve_batch``).

:func:`serve_requests` holds the choice between those loops; the
service's :class:`~repro.service.ShardEngine` serves its micro-batches
through it too.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Policy, WritebackPolicy
from repro.core.cache import MultiLevelCache, WritebackCache
from repro.core.instance import MultiLevelInstance, WritebackInstance
from repro.core.ledger import CostLedger
from repro.core.requests import RequestSequence, WBRequestSequence
from repro.errors import CacheInvariantError
from repro.sim.metrics import RunResult

__all__ = ["simulate", "simulate_writeback"]

#: Largest chunk handed to a policy's ``serve_batch`` in one call.
_KERNEL_CHUNK = 4096


def simulate(
    instance: MultiLevelInstance,
    seq: RequestSequence,
    policy: Policy,
    *,
    seed: int | np.random.Generator | None = None,
    record_events: bool = False,
    validate: bool = True,
    tracer=None,
) -> RunResult:
    """Run ``policy`` over ``seq`` on ``instance`` from an empty cache.

    Returns a :class:`~repro.sim.metrics.RunResult` with the eviction cost
    (the paper's objective), hit statistics and, optionally, the full
    eviction event log.

    ``tracer`` is an optional :class:`repro.obs.DecisionTracer`: sampled
    requests, their evictions and (for policies that expose them) the
    candidate sets are written to its JSONL sink.  A tracer whose sample
    rate is 0 never activates the traced loop (see :func:`serve_requests`),
    so attaching one keeps the ``validate=False`` fast path.
    """
    instance.validate_sequence(seq.pages, seq.levels)
    ledger = CostLedger(record_events=record_events)
    cache = MultiLevelCache(instance, ledger)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    policy.bind(instance, cache, rng)

    # The ledger and policy carry the tracer only for this run, so
    # eviction / candidate events follow their request's sampling decision.
    ledger.tracer = policy.tracer = tracer
    try:
        hits = serve_requests(policy, cache, 0, seq.pages, seq.levels,
                              validate=validate, tracer=tracer)
    finally:
        ledger.tracer = policy.tracer = None
    ledger.n_hits += hits
    ledger.n_misses += len(seq) - hits

    return RunResult(
        policy=policy.name,
        cost=ledger.eviction_cost,
        n_requests=len(seq),
        n_hits=ledger.n_hits,
        n_misses=ledger.n_misses,
        n_evictions=ledger.n_evictions,
        n_fetches=ledger.n_fetches,
        cost_by_reason=dict(ledger.cost_by_reason),
        events=list(ledger.events),
        final_cache=cache.contents(),
        extra=policy.extras(),
    )


def serve_requests(
    policy: Policy,
    cache: MultiLevelCache,
    t0: int,
    pages: np.ndarray,
    levels: np.ndarray,
    *,
    validate: bool = False,
    tracer=None,
    shard: int | None = None,
) -> int:
    """Serve ``(pages[i], levels[i])`` at logical times ``t0 + i``.

    The one choice of serve loop behind :func:`simulate` and
    :meth:`repro.service.ShardEngine.process_batch`:

    * a per-request loop when ``validate`` (served + invariant checks
      after every request), an active ``tracer`` (sampled request events)
      or the ledger's event log (eviction timestamps) needs one;
    * else the policy's ``serve_batch`` — the columnar kernels' whole-batch
      fast path, fed chunks of at most ``_KERNEL_CHUNK`` requests so its
      batch classification stays fresh against the evolving cache.  It is
      looked up per call, so a ``serve_batch`` wrapped on the policy
      instance is the one that runs;
    * else a plain loop with no per-request bookkeeping.

    A ``tracer`` whose sample rate is 0 does not count as active.  Returns
    the number of hits; the caller adds hits and misses to the ledger and
    attaches ``tracer`` to the ledger and policy.  ``shard`` only labels
    the unserved-request error.
    """
    hits = 0
    serves = cache.serves
    serve = policy.serve
    ledger = cache.ledger
    serve_batch = getattr(policy, "serve_batch", None)
    if tracer is not None and not tracer.active:
        tracer = None  # unsampled tracing: keep the fast paths
    if validate or tracer is not None or ledger.record_events:
        set_time = ledger.set_time
        trace_request = tracer.request if tracer is not None else None
        check = cache.check_invariants
        for t, (page, level) in enumerate(
                zip(pages.tolist(), levels.tolist()), t0):
            set_time(t)
            hit = serves(page, level)
            if hit:
                hits += 1
            if trace_request is not None:
                trace_request(t, page, level, hit)
            serve(t, page, level)
            if validate:
                if not serves(page, level):
                    where = "" if shard is None else f" on shard {shard}"
                    raise CacheInvariantError(
                        f"policy {policy.name!r} left request t={t} "
                        f"(page={page}, level={level}) unserved{where}"
                    )
                check()
    elif serve_batch is not None:
        for lo in range(0, int(pages.size), _KERNEL_CHUNK):
            hi = lo + _KERNEL_CHUNK
            hits += serve_batch(t0 + lo, pages[lo:hi], levels[lo:hi])
    else:
        for t, (page, level) in enumerate(
                zip(pages.tolist(), levels.tolist()), t0):
            if serves(page, level):
                hits += 1
            serve(t, page, level)
    return hits


def simulate_writeback(
    instance: WritebackInstance,
    seq: WBRequestSequence,
    policy: WritebackPolicy,
    *,
    seed: int | np.random.Generator | None = None,
    record_events: bool = False,
    validate: bool = True,
) -> RunResult:
    """Run a writeback-aware policy over a read/write stream.

    The simulator — not the policy — marks a served write's page dirty,
    since dirtying is model semantics rather than a policy decision.
    """
    instance.validate_sequence(seq.pages, seq.writes)
    ledger = CostLedger(record_events=record_events)
    cache = WritebackCache(instance, ledger)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    policy.bind(instance, cache, rng)

    pages = seq.pages.tolist()
    writes = seq.writes.tolist()
    # Same hot-loop structure as simulate(): per-mode loops, hoisted bound
    # methods, and batched hit/miss counting on the validation-free path.
    cached = cache.__contains__
    serve = policy.serve
    mark_dirty = cache.mark_dirty
    if validate:
        set_time = ledger.set_time
        count_hit = ledger.count_hit
        count_miss = ledger.count_miss
        check = cache.check_invariants
        for t, (page, is_write) in enumerate(zip(pages, writes)):
            set_time(t)
            if cached(page):
                count_hit()
            else:
                count_miss()
            serve(t, page, is_write)
            if not cached(page):
                raise CacheInvariantError(
                    f"policy {policy.name!r} left request t={t} "
                    f"(page={page}, write={is_write}) unserved"
                )
            check()
            if is_write:
                mark_dirty(page)
    else:
        hits = 0
        if record_events:
            set_time = ledger.set_time
            for t, (page, is_write) in enumerate(zip(pages, writes)):
                set_time(t)
                if cached(page):
                    hits += 1
                serve(t, page, is_write)
                if is_write:
                    mark_dirty(page)
        else:
            for t, (page, is_write) in enumerate(zip(pages, writes)):
                if cached(page):
                    hits += 1
                serve(t, page, is_write)
                if is_write:
                    mark_dirty(page)
        ledger.n_hits += hits
        ledger.n_misses += len(pages) - hits

    final = {page: (1 if dirty else 2) for page, dirty in cache.items()}
    return RunResult(
        policy=policy.name,
        cost=ledger.eviction_cost,
        n_requests=len(seq),
        n_hits=ledger.n_hits,
        n_misses=ledger.n_misses,
        n_evictions=ledger.n_evictions,
        n_fetches=ledger.n_fetches,
        cost_by_reason=dict(ledger.cost_by_reason),
        events=list(ledger.events),
        final_cache=final,
        extra=policy.extras(),
    )

"""Columnar (structure-of-arrays) batch kernels for the death-key policies.

Both water-filling and Landlord reduce, via the global-offset trick, to
the same eviction core: every cached copy carries a *death key*
``weight_at_set + offset_at_set`` and the victim is the exact minimum of
``(death, seq)``.  That core is pure array arithmetic, so this module
stores the policy state as preallocated numpy columns instead of dicts:

========================  ====================================================
Column                    Meaning
========================  ====================================================
``_death   float64[k]``   death key per cache slot (``+inf`` for free slots,
                          which keeps the candidate refill mask-free)
``_seqc    int64[k]``     credit-set sequence number per slot (tie-break)
``_slot_level_np i64[k]`` cached level per slot (0 for free slots)
``_page_slot_np  i64[n]`` page -> slot index (-1 when not cached)
========================  ====================================================

:meth:`serve_batch` serves a whole micro-batch:

1. one vectorized pass classifies every request against the current
   columns (``slot = page_slot[pages]; hit = cached & (level_of_slot <=
   level)``),
2. the leading run of pure hits is applied with two fancy-indexed
   column writes (Landlord's credit restores; water-filling hits are
   free),
3. the remainder runs a lean scalar loop that *trusts* the batch
   classification for any page not yet touched by a miss/upgrade in
   this batch (a "dirty" set), and re-derives state only for dirty
   pages.

Victims come from a short *candidate list*: the copies with the smallest
``(death, seq)`` keys, sorted, refilled from the death column (one
``np.partition``) only when it runs dry.  Every copy whose death key is
at most the refill threshold ``_tau`` has an entry — later writes at or
below it are inserted with ``bisect`` — and an entry whose slot has been
rewritten since is stale (its seq no longer matches) and skipped, so the
first live entry is the exact ``(death, seq)`` minimum.  This keeps numpy
out of the per-miss path: an ``argmin`` per eviction would release the
GIL each time, and in the threaded service every release hands the
interpreter to another thread, which halved the shard workers'
throughput.

These kernels are the production implementation of both policies:
``landlord`` and ``waterfilling-heap`` (the names of the retired
lazy-heap scalars, which recorded experiences, CLI defaults and benches
still use) resolve to them in the registry.

Exactness: the kernels perform the *same* double-precision additions in
the same order as the O(k)-scan oracles (``weights[p, l-1] + offset`` on
the same read-only array), pick victims by the same exact ``(death,
seq)`` minimum, and charge the ledger with identical reasons in
identical order — so costs, eviction event streams, and final cache
contents are ``==``-equal to ``landlord-ref`` and ``waterfilling``.  The
test suite pins this request-by-request (hypothesis suite in
``tests/algorithms/test_kernel_equivalence.py``).

The kernels write ``cache._contents`` directly (one dict store per
mutation) instead of going through :meth:`MultiLevelCache.fetch` /
``evict`` / ``replace``: the cache dict stays authoritative and in sync
after every request — invariant checks and ``serves()`` still work —
but the per-call validation layers are skipped on the hot path.  Run
with ``validate=True`` (the per-request ``serve`` loop + invariant
checks) when auditing.

Checkpointing: the policies pickle their numpy columns and rebuild the
derived python-list mirrors and weight views in ``__setstate__``, so
supervisor restore, process workers, and cluster migration round-trip
them exactly like any other policy.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.algorithms.base import Policy, policy_registry, register_policy
from repro.errors import CacheInvariantError

__all__ = ["KernelLandlordPolicy", "KernelWaterFillingPolicy"]

#: Sequence sentinel for free slots (never compared against a live seq).
_EMPTY_SEQ = 2 ** 62
_INF = float("inf")
#: Live keys a candidate-list refill takes from the death column.
_CANDIDATES = 64
#: Entries past which the candidate list is dropped (stale entries pile
#: up when hits keep rewriting low keys between evictions).
_CANDIDATE_CAP = 1024


def _noop(_page) -> None:
    """Default dirty-marker for the single-request ``serve`` protocol."""


class _ColumnarPolicy(Policy):
    """Shared SoA state + batch dispatch for the death-key policy family.

    Subclasses provide the eviction reason, the hit behavior (Landlord
    restores credit, water-filling does nothing), and the vectorized
    hit-run kernel.
    """

    #: Ledger reason charged on capacity evictions.
    _evict_reason = "capacity"

    #: Whether a hit rewrites the copy's death key (Landlord restores
    #: credit; water-filling hits are free).
    _hit_restores = False

    def bind(self, instance, cache, rng) -> None:
        super().bind(instance, cache, rng)
        n, k = instance.n_pages, instance.cache_size
        self._n = n
        self._k = k
        self._L = instance.n_levels
        self._offset = 0.0
        self._counter = 0
        self._ncached = 0
        # Authoritative numpy columns (victim candidates are drawn from these).
        self._death = np.full(k, np.inf, dtype=np.float64)
        self._seqc = np.full(k, _EMPTY_SEQ, dtype=np.int64)
        self._page_slot_np = np.full(n, -1, dtype=np.int64)
        self._slot_level_np = np.zeros(k, dtype=np.int64)
        self._free = list(range(k - 1, -1, -1))
        self._slot_page = [-1] * k
        self._rebuild_derived()

    def _rebuild_derived(self) -> None:
        """(Re)derive the hot-loop mirrors from the pickled/bound state.

        Python-list mirrors of the index columns exist because scalar
        reads from a list are ~2x faster than numpy scalar indexing —
        the batch path still reads the numpy columns vectorized.
        """
        self._W = self.instance.weights
        self._wlist = self._W.ravel().tolist()
        self._page_slot = self._page_slot_np.tolist()
        self._slot_level = self._slot_level_np.tolist()
        self._contents = self.cache._contents
        self._ledger = self.cache.ledger
        # Empty candidate list with threshold -inf: vacuously complete,
        # so the first eviction refills it from the columns.
        self._cand: list[tuple[float, int, int]] = []
        self._tau = -_INF

    def rebind_instance(self) -> None:
        """Re-derive weight views after the engine re-points ``instance``.

        :meth:`ShardEngine.restore_state` replaces the unpickled
        instance with its live (shared, read-only) twin; the weight
        values are equal, so behavior is unchanged — this just restores
        memory sharing.
        """
        self._W = self.instance.weights
        self._wlist = self._W.ravel().tolist()

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        # Derived mirrors are rebuilt on unpickle; dropping them keeps
        # checkpoints small and avoids pickling the cache dict twice.
        for name in ("_W", "_wlist", "_page_slot", "_slot_level",
                     "_contents", "_ledger", "_cand", "_tau"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if state.get("instance") is not None and "_page_slot_np" in state:
            self._rebuild_derived()

    # -- subclass hooks ----------------------------------------------------
    def _scalar_hit(self, page: int, slot: int, current: int) -> None:
        """Serve a hit on ``page`` cached in ``slot`` at ``current``."""
        raise NotImplementedError

    def _apply_hit_run(self, run_pages, run_slots, run_levels) -> None:
        """Vectorized equivalent of ``_scalar_hit`` over a pure-hit run."""
        raise NotImplementedError

    def _serve_rest(self, i0, pages_l, levels_l, hit_l, slot_l, level_l) -> int:
        """Scalar loop over ``[i0, n)`` trusting the batch classification.

        One fused loop with every piece of state hoisted into locals: a
        page not yet touched by a miss/upgrade in this batch (the
        ``dirty`` set) keeps its classification-pass verdict, slot, and
        cached level; anything else re-derives from the live columns.
        The loop body is the inlined union of ``_scalar_hit`` /
        ``_serve_one`` / ``_evict_victim`` — kept semantically in
        lock-step with them (the protocol :meth:`serve` path runs those,
        and the equivalence suite pins both against the scan oracles).
        """
        death = self._death
        seqc = self._seqc
        wlist = self._wlist
        L = self._L
        page_slot = self._page_slot
        slot_page = self._slot_page
        slot_level = self._slot_level
        page_slot_np = self._page_slot_np
        slot_level_np = self._slot_level_np
        contents = self._contents
        ledger = self._ledger
        charge = ledger.charge_eviction
        count_fetch = ledger.count_fetch
        free = self._free
        k = self._k
        restores = self._hit_restores
        reason = self._evict_reason
        pop_victim = self._pop_victim
        push = self._push
        tau = self._tau
        offset = self._offset
        counter = self._counter
        ncached = self._ncached
        dirty: set[int] = set()
        dirty_add = dirty.add
        hits = 0
        try:
            for i in range(i0, len(pages_l)):
                page = pages_l[i]
                if hit_l[i] and page not in dirty:
                    # Trusted hit: slot and cached level come from the
                    # classification pass.
                    hits += 1
                    if restores:
                        slot = slot_l[i]
                        key = wlist[page * L + level_l[i] - 1] + offset
                        death[slot] = key
                        seqc[slot] = counter
                        if key <= tau:
                            push(key, counter, slot)
                            tau = self._tau
                        counter += 1
                    continue
                level = levels_l[i]
                slot = page_slot[page]
                if slot >= 0:
                    current = slot_level[slot]
                    if current <= level:
                        hits += 1
                        if restores:
                            key = wlist[page * L + current - 1] + offset
                            death[slot] = key
                            seqc[slot] = counter
                            if key <= tau:
                                push(key, counter, slot)
                                tau = self._tau
                            counter += 1
                        continue
                    # In-place level upgrade: charge the old copy.
                    charge(page, current,
                           wlist[page * L + current - 1], "upgrade")
                    contents[page] = level
                    count_fetch()
                    slot_level[slot] = level
                    slot_level_np[slot] = level
                    key = wlist[page * L + level - 1] + offset
                    death[slot] = key
                    seqc[slot] = counter
                    if key <= tau:
                        push(key, counter, slot)
                        tau = self._tau
                    counter += 1
                    dirty_add(page)
                    continue
                # Miss: evict the (death, seq)-minimal copy if full.
                if ncached >= k:
                    victim, offset = pop_victim()
                    tau = self._tau
                    vpage = slot_page[victim]
                    vlevel = slot_level[victim]
                    del contents[vpage]
                    charge(vpage, vlevel,
                           wlist[vpage * L + vlevel - 1], reason)
                    page_slot[vpage] = -1
                    page_slot_np[vpage] = -1
                    slot_page[victim] = -1
                    slot_level[victim] = 0
                    slot_level_np[victim] = 0
                    death[victim] = _INF
                    seqc[victim] = _EMPTY_SEQ
                    free.append(victim)
                    ncached -= 1
                    dirty_add(vpage)
                slot = free.pop()
                contents[page] = level
                count_fetch()
                page_slot[page] = slot
                page_slot_np[page] = slot
                slot_page[slot] = page
                slot_level[slot] = level
                slot_level_np[slot] = level
                key = wlist[page * L + level - 1] + offset
                death[slot] = key
                seqc[slot] = counter
                if key <= tau:
                    push(key, counter, slot)
                    tau = self._tau
                counter += 1
                ncached += 1
                dirty_add(page)
        finally:
            self._offset = offset
            self._counter = counter
            self._ncached = ncached
        return hits

    # -- credit/water bookkeeping ------------------------------------------
    def _insert(self, page: int, slot: int, level: int) -> None:
        """Set the death key for a freshly (re)fetched copy."""
        key = self._wlist[page * self._L + level - 1] + self._offset
        self._death[slot] = key
        self._seqc[slot] = self._counter
        self._push(key, self._counter, slot)
        self._counter += 1

    # -- victim candidates -------------------------------------------------
    def _push(self, key: float, seq: int, slot: int) -> None:
        """Enter a write of ``(key, seq)`` to ``slot`` if it is a candidate.

        Entries are stored negated so ``list.pop()`` yields the minimum.
        """
        if key <= self._tau:
            cand = self._cand
            insort(cand, (-key, -seq, slot))
            if len(cand) > _CANDIDATE_CAP:
                cand.clear()
                self._tau = -_INF

    def _refill(self) -> None:
        """Reload the candidates: every key up to the ``_CANDIDATES``-th."""
        death = self._death
        m = min(_CANDIDATES, self._k)
        tau = float(np.partition(death, m - 1)[m - 1])
        if tau == _INF:
            raise CacheInvariantError(
                f"policy {self.name!r}: death-key column exhausted while the "
                f"cache holds {len(self._contents)}/{self._k} copies — "
                "kernel state is corrupt (e.g. a bad restore)"
            )
        slots = np.flatnonzero(death <= tau)
        self._cand[:] = sorted(zip((-death[slots]).tolist(),
                                   (-self._seqc[slots]).tolist(),
                                   slots.tolist()))
        self._tau = tau

    def _pop_victim(self) -> tuple[int, float]:
        """Take the ``(death, seq)``-minimal slot off the candidates.

        Only called on a full cache.  Returns the slot and its death key.
        """
        cand = self._cand
        death = self._death
        seqc = self._seqc
        while True:
            while cand:
                key, seq, slot = cand.pop()
                if seqc[slot] == -seq and death[slot] == -key:
                    return slot, -key
            self._refill()

    def _evict_victim(self) -> int:
        """Evict the exact ``(death, seq)``-minimal copy; returns its page."""
        victim, self._offset = self._pop_victim()
        page = self._slot_page[victim]
        level = self._slot_level[victim]
        del self._contents[page]
        self._ledger.charge_eviction(
            page, level, self._wlist[page * self._L + level - 1],
            self._evict_reason,
        )
        self._page_slot[page] = -1
        self._page_slot_np[page] = -1
        self._slot_page[victim] = -1
        self._slot_level[victim] = 0
        self._slot_level_np[victim] = 0
        self._death[victim] = _INF
        self._seqc[victim] = _EMPTY_SEQ
        self._free.append(victim)
        self._ncached -= 1
        return page

    def _serve_one(self, page: int, level: int, dirty_add=_noop) -> int:
        """Serve one request against the columns; returns 1 on a hit.

        ``dirty_add`` marks pages whose cached state changed during the
        current batch so the batch classification stops trusting them.
        """
        slot = self._page_slot[page]
        if slot >= 0:
            current = self._slot_level[slot]
            if current <= level:
                self._scalar_hit(page, slot, current)
                return 1
            # In-place level upgrade: charge the old copy, fetch is free.
            ledger = self._ledger
            ledger.charge_eviction(
                page, current,
                self._wlist[page * self._L + current - 1], "upgrade",
            )
            self._contents[page] = level
            ledger.count_fetch()
            self._slot_level[slot] = level
            self._slot_level_np[slot] = level
            self._insert(page, slot, level)
            dirty_add(page)
            return 0
        # Miss: make room if needed, then fetch into a free slot.
        if self._ncached >= self._k:
            dirty_add(self._evict_victim())
        slot = self._free.pop()
        self._contents[page] = level
        self._ledger.count_fetch()
        self._page_slot[page] = slot
        self._page_slot_np[page] = slot
        self._slot_page[slot] = page
        self._slot_level[slot] = level
        self._slot_level_np[slot] = level
        self._insert(page, slot, level)
        self._ncached += 1
        dirty_add(page)
        return 0

    # -- batch entry point -------------------------------------------------
    def serve_batch(self, t0: int, pages: np.ndarray, levels: np.ndarray) -> int:
        """Serve a whole micro-batch; returns the number of hits.

        Requests are served in order with semantics identical to calling
        :meth:`serve` per request; ``t0`` is the logical time of the
        first request (kept for protocol symmetry — the death-key
        policies are clock-free).
        """
        n = int(pages.size)
        if n == 0:
            return 0
        slots = self._page_slot_np[pages]
        # slots == -1 reads the last row of the level column; the value
        # is garbage but the `cached` mask below discards it.
        cached_levels = self._slot_level_np[slots]
        is_hit = (slots >= 0) & (cached_levels <= levels)
        first_miss = int(is_hit.argmin())
        if is_hit[first_miss]:
            first_miss = n  # argmin found no False: the batch is all hits
        if first_miss:
            self._apply_hit_run(pages[:first_miss], slots[:first_miss],
                                cached_levels[:first_miss])
        if first_miss == n:
            return n
        return first_miss + self._serve_rest(
            first_miss, pages.tolist(), levels.tolist(), is_hit.tolist(),
            slots.tolist(), cached_levels.tolist(),
        )

    def serve(self, t: int, page: int, level: int) -> None:
        self._serve_one(page, level)


@register_policy
class KernelLandlordPolicy(_ColumnarPolicy):
    """Landlord on columnar state; ``==``-equal to ``landlord-ref``.

    Hits restore the cached copy's credit (a death-key rewrite at the
    *current* level), so the hit-run kernel is two fancy-indexed writes:
    ``death[slots] = W[pages, levels-1] + offset`` and a fresh
    ``arange`` of sequence numbers.  Duplicate pages inside one run are
    resolved by numpy's in-order assignment (the last occurrence wins),
    which is exactly the scalar overwrite order.
    """

    name = "landlord-kernel"
    _evict_reason = "capacity"
    _hit_restores = True

    def _scalar_hit(self, page: int, slot: int, current: int) -> None:
        # Hit: restore credit to the cached copy's full weight.
        self._insert(page, slot, current)

    def _apply_hit_run(self, run_pages, run_slots, run_levels) -> None:
        count = self._counter
        r = int(run_pages.size)
        keys = self._W[run_pages, run_levels - 1] + self._offset
        self._death[run_slots] = keys
        self._seqc[run_slots] = np.arange(count, count + r, dtype=np.int64)
        self._counter = count + r
        low = np.flatnonzero(keys <= self._tau)
        if low.size:
            keys_l = keys.tolist()
            slots_l = run_slots.tolist()
            for i in low.tolist():
                self._push(keys_l[i], count + i, slots_l[i])


@register_policy
class KernelWaterFillingPolicy(_ColumnarPolicy):
    """Water-filling on columnar state; ``==``-equal to ``waterfilling``.

    Hits are free (no state change), so the batch path reduces to the
    classification pass plus scalar work on misses and upgrades only —
    the fastest policy in the registry on hit-heavy streams.
    """

    name = "waterfilling-kernel"
    _evict_reason = "waterfill"
    _hit_restores = False

    def _scalar_hit(self, page: int, slot: int, current: int) -> None:
        return  # step 1: already satisfied, water levels unchanged

    def _apply_hit_run(self, run_pages, run_slots, run_levels) -> None:
        return  # hits touch no columns


# The retired lazy-heap scalars' registry names resolve to the kernels.
policy_registry["landlord"] = KernelLandlordPolicy
policy_registry["waterfilling-heap"] = KernelWaterFillingPolicy

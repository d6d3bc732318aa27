"""The columnar kernels must be *exactly* their scalar twins, request by request.

``landlord-kernel`` / ``waterfilling-kernel`` rearrange the policy state
into numpy columns and serve whole batches, but every float they produce
comes from the same additions in the same order as the scalar
implementations (``weight + offset`` death keys, exact ``(death, seq)``
argmin).  So the comparison here is ``==`` between each kernel and its
O(k)-scan oracle (``landlord-ref`` / ``waterfilling``) on costs, eviction
event streams (page, level, cost, reason), final cache contents and hit
counts.  Checkpoint pickling is exercised mid-stream: a restored kernel
must continue byte-identically.  A corrupt full kernel must fail loudly.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.algorithms import (
    KernelLandlordPolicy,
    KernelWaterFillingPolicy,
    LandlordRefPolicy,
    WaterFillingPolicy,
    kernels,
    policy_registry,
)
from repro.core.cache import MultiLevelCache
from repro.core.instance import MultiLevelInstance, WeightedPagingInstance
from repro.core.ledger import CostLedger
from repro.core.requests import RequestSequence
from repro.errors import CacheInvariantError
from repro.sim import simulate
from repro.workloads import (
    multilevel_stream,
    random_multilevel_instance,
    sample_weights,
    zipf_stream,
)

#: (production kernel, O(k)-scan oracle) per death-key family.
FAMILIES = [
    (KernelLandlordPolicy, LandlordRefPolicy),
    (KernelWaterFillingPolicy, WaterFillingPolicy),
]


def _events(result):
    return [(e.page, e.level, e.cost, e.reason) for e in result.events]


def _random_case(rng, *, max_pages=40, max_len=400):
    n = int(rng.integers(3, max_pages))
    k = int(rng.integers(1, n))
    levels = int(rng.integers(1, 5))
    inst = random_multilevel_instance(n, k, levels, rng=rng)
    seq = multilevel_stream(n, levels, int(rng.integers(50, max_len)),
                            alpha=float(rng.uniform(0.3, 1.2)), rng=rng)
    return inst, seq


def assert_pair_equivalent(inst, seq, factories):
    """Kernel vs scan oracle under the verifying simulator: all ``==``."""
    kernel, oracle = (simulate(inst, seq, factory(), record_events=True)
                      for factory in factories)
    assert oracle.cost == kernel.cost
    assert _events(oracle) == _events(kernel)
    assert oracle.final_cache == kernel.final_cache
    assert oracle.n_hits == kernel.n_hits
    assert oracle.n_evictions == kernel.n_evictions


class TestKernelEquivalence:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng)
        for factories in FAMILIES:
            assert_pair_equivalent(inst, seq, factories)

    def test_weighted_zipf(self):
        inst = WeightedPagingInstance(8, sample_weights(40, rng=2, high=64.0))
        seq = zipf_stream(40, 2000, alpha=0.8, rng=3)
        for factories in FAMILIES:
            assert_pair_equivalent(inst, seq, factories)

    def test_tied_death_keys_break_identically(self):
        # Uniform weights make every live death key equal: only the exact
        # (death, seq) tie-break keeps the kernel's argmin on the scan's
        # victim.  This is the case a float-tolerant kernel would fail.
        inst = WeightedPagingInstance.uniform(10, 4)
        seq = zipf_stream(10, 1500, alpha=0.5, rng=9)
        for factories in FAMILIES:
            assert_pair_equivalent(inst, seq, factories)

    def test_registered(self):
        assert policy_registry["landlord-kernel"] is KernelLandlordPolicy
        assert policy_registry["waterfilling-kernel"] is KernelWaterFillingPolicy
        # The retired lazy-heap scalars' names serve the kernels.
        assert policy_registry["landlord"] is KernelLandlordPolicy
        assert policy_registry["waterfilling-heap"] is KernelWaterFillingPolicy


class TestServeBatchChunks:
    """serve_batch over arbitrary chunkings == the scalar oracle's serve loop."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_chunk_sizes(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng, max_pages=60, max_len=600)
        for kernel_cls, oracle_cls in FAMILIES:
            ledger = CostLedger(record_events=True)
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(inst, ledger),
                        np.random.default_rng(0))
            hits, t = 0, 0
            while t < len(seq):
                chunk = int(rng.integers(1, 65))
                hits += kernel.serve_batch(
                    t, seq.pages[t:t + chunk], seq.levels[t:t + chunk])
                t += chunk
            oracle = simulate(inst, seq, oracle_cls(), record_events=True,
                              validate=False)
            assert ledger.eviction_cost == oracle.cost
            assert [(e.page, e.level, e.cost, e.reason)
                    for e in ledger.events] == _events(oracle)
            assert dict(kernel.cache.items()) == oracle.final_cache
            assert hits == oracle.n_hits

    def test_empty_and_single_request_batches(self):
        inst = WeightedPagingInstance(4, sample_weights(12, rng=0))
        seq = zipf_stream(12, 64, alpha=0.9, rng=1)
        for kernel_cls, oracle_cls in FAMILIES:
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(inst, CostLedger()),
                        np.random.default_rng(0))
            hits = 0
            assert kernel.serve_batch(0, seq.pages[:0], seq.levels[:0]) == 0
            for t in range(len(seq)):
                hits += kernel.serve_batch(
                    t, seq.pages[t:t + 1], seq.levels[t:t + 1])
            oracle = simulate(inst, seq, oracle_cls(), validate=False)
            assert kernel.cache.ledger.eviction_cost == oracle.cost
            assert hits == oracle.n_hits


class TestKernelCheckpointEquivalence:
    """Pickle round-trips mid-stream must not perturb a single decision."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_midstream_pickle_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        inst, seq = _random_case(rng, max_pages=50, max_len=600)
        cut = len(seq) // 2
        for kernel_cls, _ in FAMILIES:
            ledger = CostLedger(record_events=True)
            original = kernel_cls()
            original.bind(inst, MultiLevelCache(inst, ledger),
                          np.random.default_rng(0))
            original.serve_batch(0, seq.pages[:cut], seq.levels[:cut])
            restored = pickle.loads(pickle.dumps(original))
            # The restoring engine re-points the shared instance and asks
            # the policy to re-derive its weight views.
            restored.instance = inst
            restored.cache.instance = inst
            restored.rebind_instance()
            for policy in (original, restored):
                policy.serve_batch(cut, seq.pages[cut:], seq.levels[cut:])
            l1, l2 = original.cache.ledger, restored.cache.ledger
            assert l2.eviction_cost == l1.eviction_cost
            assert [(e.page, e.level, e.cost, e.reason)
                    for e in l2.events] == [
                        (e.page, e.level, e.cost, e.reason)
                        for e in l1.events]
            assert dict(restored.cache.items()) == dict(
                original.cache.items())

    def test_restored_kernel_matches_scan_oracle(self):
        inst = WeightedPagingInstance(6, sample_weights(24, rng=4, high=32.0))
        seq = zipf_stream(24, 600, rng=7)
        cut = 300
        for kernel_cls, oracle_cls in FAMILIES:
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(inst, CostLedger()),
                        np.random.default_rng(0))
            kernel.serve_batch(0, seq.pages[:cut], seq.levels[:cut])
            kernel = pickle.loads(pickle.dumps(kernel))
            kernel.instance = inst
            kernel.cache.instance = inst
            kernel.rebind_instance()
            kernel.serve_batch(cut, seq.pages[cut:], seq.levels[cut:])
            oracle = simulate(inst, seq, oracle_cls(), validate=False)
            assert kernel.cache.ledger.eviction_cost == oracle.cost
            assert dict(kernel.cache.items()) == oracle.final_cache


class TestCandidateList:
    """Victims come from a bounded candidate list refilled from the death
    column.  Shrunk to a few entries, it refills, skips stale entries and
    overflows on nearly every eviction; the kernels must still equal the
    oracles on the per-request and on the batch path."""

    @pytest.mark.parametrize("size,cap", [(1, 1), (2, 3), (5, 2)])
    def test_tiny_candidate_list_matches_oracle(self, monkeypatch, size, cap):
        monkeypatch.setattr(kernels, "_CANDIDATES", size)
        monkeypatch.setattr(kernels, "_CANDIDATE_CAP", cap)
        rng = np.random.default_rng(100 * size + cap)
        for _ in range(5):
            inst, seq = _random_case(rng)
            for kernel_cls, oracle_cls in FAMILIES:
                assert_pair_equivalent(inst, seq, (kernel_cls, oracle_cls))
                batch, oracle = (simulate(inst, seq, cls(), validate=False)
                                 for cls in (kernel_cls, oracle_cls))
                assert batch.cost == oracle.cost
                assert batch.final_cache == oracle.final_cache
                assert batch.n_hits == oracle.n_hits

    def test_rewrite_at_an_equal_key_makes_the_old_entry_stale(self):
        # After the refill at D, D and then C's restore land at key 2 in
        # the list; D's restore rewrites it at the same key 2 with a later
        # seq.  Only the seq tells D's first entry stale, so the victim
        # at E must be C (the older of the live ties), as the oracle says.
        inst = WeightedPagingInstance(3, [10.0, 1.0, 1.0, 1.0, 1.0])
        seq = RequestSequence.from_pages([0, 1, 2, 3, 2, 3, 4])
        assert_pair_equivalent(inst, seq,
                               (KernelLandlordPolicy, LandlordRefPolicy))
        result = simulate(inst, seq, KernelLandlordPolicy(),
                          record_events=True)
        assert [e.page for e in result.events] == [1, 2]


class TestHitHeavyStream:
    """~90% hits over three levels for 100k requests: a Landlord credit
    restore or a water-filling upgrade on almost every request, served in
    batches.  The kernel's state stays ``k`` slots and its ledger and
    cache equal the scan oracle's."""

    def test_long_stream_matches_oracle_in_fixed_state(self):
        n_pages, k, length = 256, 64, 100_000
        rng = np.random.default_rng(0)
        base = sample_weights(n_pages, rng=1, high=16.0)
        # Level 1 costs most, so hot re-requests at a smaller level than
        # the cached copy upgrade it in place.
        inst = MultiLevelInstance(k, np.outer(base, [4.0, 2.0, 1.0]))
        seq = RequestSequence(
            zipf_stream(n_pages, length, alpha=1.2, rng=2).pages,
            rng.integers(1, 4, size=length))
        for kernel_cls, oracle_cls in FAMILIES:
            ledger = CostLedger(record_events=True)
            kernel = kernel_cls()
            kernel.bind(inst, MultiLevelCache(inst, ledger),
                        np.random.default_rng(0))
            hits = sum(kernel.serve_batch(lo, seq.pages[lo:lo + 512],
                                          seq.levels[lo:lo + 512])
                       for lo in range(0, length, 512))
            assert hits > 0.5 * length  # really hit-heavy
            assert kernel._death.shape == kernel._seqc.shape == (k,)
            assert len(kernel._cand) <= kernels._CANDIDATE_CAP
            assert kernel._ncached + len(kernel._free) == k
            oracle = simulate(inst, seq, oracle_cls(), record_events=True,
                              validate=False)
            assert ledger.eviction_cost == oracle.cost
            assert [(e.page, e.level, e.cost, e.reason)
                    for e in ledger.events] == _events(oracle)
            assert dict(kernel.cache.items()) == oracle.final_cache
            assert hits == oracle.n_hits


class TestCorruptKernelState:
    """A full cache whose death-key column has no live key (a corrupt
    restore) must raise :class:`CacheInvariantError` naming the policy and
    the occupancy, on both the per-request and the batch path — also when
    the victim candidate list still holds entries from before."""

    @staticmethod
    def _corrupt_full_kernel(kernel_cls):
        inst = WeightedPagingInstance(2, sample_weights(8, rng=0))
        kernel = kernel_cls()
        kernel.bind(inst, MultiLevelCache(inst, CostLedger()),
                    np.random.default_rng(0))
        for t in range(3):  # the third request evicts: candidates exist
            kernel.serve(t, t, 1)
        assert kernel._cand
        kernel._death[:] = np.inf  # every live key lost
        return kernel

    @pytest.mark.parametrize("kernel_cls", [KernelLandlordPolicy,
                                            KernelWaterFillingPolicy])
    def test_serve_raises_invariant_error(self, kernel_cls):
        kernel = self._corrupt_full_kernel(kernel_cls)
        with pytest.raises(CacheInvariantError) as exc:
            kernel.serve(2, 5, 1)
        message = str(exc.value)
        assert kernel.name in message
        assert "2/2" in message  # occupancy / capacity

    @pytest.mark.parametrize("kernel_cls", [KernelLandlordPolicy,
                                            KernelWaterFillingPolicy])
    def test_serve_batch_raises_invariant_error(self, kernel_cls):
        kernel = self._corrupt_full_kernel(kernel_cls)
        with pytest.raises(CacheInvariantError) as exc:
            kernel.serve_batch(2, np.array([5]), np.array([1]))
        message = str(exc.value)
        assert kernel.name in message
        assert "2/2" in message

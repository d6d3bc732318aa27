"""The benchmark's workloads: what each one is, why, and its inputs.

Every input is generated here from ``--seed``; the program only ever sees
the generated instance and request stream.  Each workload is chosen so
that one layer of the stack does most of the work in it and little in
another, so a gain in that layer shows undiluted in one workload and as
"no change" in the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import WeightedPagingInstance
from repro.algorithms import (
    KernelWaterFillingPolicy,
    RandomizedMultiLevelPolicy,
    SolverSource,
)
from repro.workloads import (
    geometric_instance,
    multilevel_stream,
    random_multilevel_instance,
    sample_weights,
    zipf_stream,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policy: str            # registered name, also what servers run
    n_shards: int
    batch_size: int


#: Every traffic shape, by name.  ``serve-tcp`` is not a workload of its
#: own: the traced run of ``replay-zipf`` sends it to price the network
#: layers (see ``tcp.py``).
SHAPES = {
    w.name: w for w in (
        Workload(
            "replay-zipf",
            "weighted paging (l=1), Zipf(0.9) over 8192 pages, k=512, hit "
            "ratio ~0.40, closed loop into an inline 1-shard service: the "
            "columnar kernel and the engine do all the work",
            "waterfilling-kernel", 1, 512),
        Workload(
            "paper-multilevel",
            "the paper's randomized O(log^2 k) pipeline (fractional solver "
            "+ Algorithm 2) on l=3, n=1024, k=64, miss-heavy: the solver "
            "and the rounding dominate, the kernel is bypassed",
            "randomized-multilevel", 1, 4),
        Workload(
            "serve-tcp",
            "open loop over loopback into `repro serve --listen` (2 shards, "
            "l=2, hit ratio ~0.82, upgrade-heavy misses): codec, asyncio "
            "server, thread handoff and queueing dominate",
            "waterfilling-kernel", 2, 512),
    )
}

#: The workloads ``--workload`` accepts: the in-process replays.
WORKLOADS = {name: SHAPES[name] for name in ("replay-zipf",
                                             "paper-multilevel")}

#: Requests per replay pass (every pass serves the same stream afresh).
REPLAY_PASS = {"replay-zipf": 1 << 17, "paper-multilevel": 1 << 12}

#: Requests in the stream the serve-tcp run cycles through.
TCP_STREAM = 1 << 20


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


def make_inputs(name: str, seed: int):
    """``(instance, pages, levels)`` for workload ``name`` at ``seed``."""
    if name == "replay-zipf":
        g_w, g_s = _rngs(seed, 2)
        inst = WeightedPagingInstance(
            512, sample_weights(8192, g_w, low=1.0, high=32.0))
        seq = zipf_stream(8192, REPLAY_PASS[name], alpha=0.9, rng=g_s)
    elif name == "paper-multilevel":
        g_i, g_s = _rngs(seed, 2)
        inst = random_multilevel_instance(1024, 64, 3, rng=g_i)
        seq = multilevel_stream(1024, 3, REPLAY_PASS[name], alpha=0.6,
                                rng=g_s)
    elif name == "serve-tcp":
        (g_s,) = _rngs(seed, 1)
        inst = tcp_instance()
        seq = multilevel_stream(768, 2, TCP_STREAM, alpha=0.9,
                                level_bias=2.0, rng=g_s)
    else:
        raise KeyError(name)
    return inst, seq.pages, seq.levels


def tcp_instance():
    """The TCP workload's instance; `repro serve --n-pages 768 --k 512
    --levels 2` builds the same one server-side."""
    return geometric_instance(768, 512, 2)


def policy_factory(name: str, recorder=None):
    """Zero-argument policy factory for workload ``name``.

    With a span ``recorder`` (traced runs only) the fresh policy and its
    fractional source are instrumented before a
    :class:`~repro.service.ShardEngine` binds them, since the engine
    caches ``serve_batch`` when it is built.
    """
    workload = SHAPES[name]

    def make():
        if workload.policy == "randomized-multilevel":
            source = SolverSource()
            policy = RandomizedMultiLevelPolicy(source=source)
            if recorder is not None:
                source.step = recorder.wrap("fractional.step", source.step)
                policy.serve = recorder.wrap("rounding.serve", policy.serve)
            return policy
        policy = KernelWaterFillingPolicy()
        if recorder is not None:
            policy.serve_batch = recorder.wrap("kernels.serve_batch",
                                               policy.serve_batch)
        return policy

    return make

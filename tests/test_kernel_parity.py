"""Run-loop backends vs the scalar reference path.

Three layers of verification:

1. **Full-run parity** — every scheduler is run per *backend* from
   the same seed on the same instance: the ``kernel`` per-slot path
   (batch evaluators, cached submatrices), the fused ``numpy``
   backend (chunked draws, sparse bookkeeping, inline evaluators),
   and the scalar reference inside ``kernel.scalar_reference()`` (one
   scalar ``successes()`` call per slot). All ``RunResult``\\ s — delivered
   order, remaining set, slots used, full slot history — must be
   identical, which also pins down that every backend consumes the
   exact same RNG stream (the chunk-drawn backends must rewind their
   overdraw to the per-slot generator position).
2. **Predicate parity** — ``successes_mask`` must agree with
   ``successes`` on random active sets for every model, including a
   hypothesis sweep over random weight matrices for the affectance
   criterion.
3. **Boundary parity** — crafted instances whose accumulated impact
   lands exactly on the affectance threshold, forcing the fused
   backend through its exact-summation guard paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interference.builders import node_constraint_conflicts
from repro.interference.conflict import ConflictGraphModel
from repro.interference.jamming import JammedModel, PeriodicBurstPattern
from repro.interference.mac import MultipleAccessChannel
from repro.interference.matrix_model import (
    AffectanceThresholdModel,
    ExplicitMatrixModel,
)
from repro.interference.packet_routing import PacketRoutingModel
from repro.interference.unreliable import UnreliableModel
from repro.network.topology import (
    grid_network,
    mac_network,
    random_sinr_network,
)
from repro.sinr.weights import linear_power_model
from repro.staticsched import (
    DecayScheduler,
    FkvScheduler,
    HmScheduler,
    KvScheduler,
    MacBackoffScheduler,
    RoundRobinScheduler,
    SingleHopScheduler,
)
from repro.staticsched.kernel import scalar_reference
from repro.staticsched.runloop import available_backends, use_backend


def _random_weights(m: int, seed: int, scale: float = 0.35) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.random((m, m)) * scale
    np.fill_diagonal(matrix, 1.0)
    return matrix


def _affectance_model():
    net = mac_network(10)  # any 10-link network; W carries the structure
    return AffectanceThresholdModel(net, _random_weights(10, seed=11))


def _conflict_model():
    net = grid_network(3, 3)
    return ConflictGraphModel(net, node_constraint_conflicts(net))


def _sinr_model():
    net = random_sinr_network(12, rng=3)
    return linear_power_model(net, alpha=3.0, beta=1.0, noise=0.02)


def _unreliable_model():
    return UnreliableModel(_affectance_model(), 0.35, rng=77)


def _jammed_model():
    return JammedModel(
        _affectance_model(),
        PeriodicBurstPattern(period=5, burst=2),
        targets=[0, 2, 4, 6],
    )


def _explicit_model():
    """A model with NO vectorized overrides: exercises the base
    ``successes_mask`` fallback and the default ``MaskBatchEvaluator``
    — the path every third-party model subclass gets for free."""
    weights = _random_weights(8, seed=19)

    def predicate(transmitting):
        # At most 2 simultaneous low-id links succeed (arbitrary but
        # deterministic semantics independent of W).
        chosen = sorted(transmitting)[:2]
        return set(chosen)

    return ExplicitMatrixModel(mac_network(8), weights, predicate)


MODEL_FACTORIES = {
    "packet-routing": lambda: PacketRoutingModel(grid_network(3, 3)),
    "mac": lambda: MultipleAccessChannel(mac_network(5)),
    "conflict": _conflict_model,
    "affectance": _affectance_model,
    "sinr": _sinr_model,
    "unreliable": _unreliable_model,
    "jammed": _jammed_model,
    "explicit-fallback": _explicit_model,
}

KERNEL_SCHEDULERS = {
    "kv": lambda: KvScheduler(),
    "decay": lambda: DecayScheduler(),
    "fkv": lambda: FkvScheduler(),
    "hm": lambda: HmScheduler(),
    "single-hop": lambda: SingleHopScheduler(),
}


def _run_once(scheduler_factory, model_factory, seed, record_history=True):
    """One seeded run; fresh model + scheduler so stateful wrappers
    (loss RNG, jammer clock) replay identically in both modes."""
    model = model_factory()
    scheduler = scheduler_factory()
    rng = np.random.default_rng(seed)
    requests = list(rng.integers(0, model.num_links, size=25))
    measure = model.interference_measure(requests)
    budget = min(scheduler.budget_for(measure, len(requests)), 400)
    return scheduler.run(
        model,
        requests,
        budget,
        rng=np.random.default_rng(seed + 1),
        record_history=record_history,
    )


#: Concrete non-reference backends.
PARITY_BACKENDS = tuple(
    name for name in available_backends() if name != "scalar"
)


@pytest.mark.parametrize("backend", PARITY_BACKENDS)
@pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
@pytest.mark.parametrize("sched_name", sorted(KERNEL_SCHEDULERS))
def test_full_run_parity(sched_name, model_name, backend):
    scheduler_factory = KERNEL_SCHEDULERS[sched_name]
    model_factory = MODEL_FACTORIES[model_name]
    with use_backend(backend):
        run = _run_once(scheduler_factory, model_factory, seed=5)
    with scalar_reference():
        reference = _run_once(scheduler_factory, model_factory, seed=5)
    assert run.delivered == reference.delivered
    assert run.remaining == reference.remaining
    assert run.slots_used == reference.slots_used
    assert run.history == reference.history


@pytest.mark.parametrize("sched_name", ["mac-backoff", "round-robin"])
def test_mac_only_schedulers_unaffected_by_reference_mode(sched_name):
    """The MAC-specialised schedulers bypass the kernel; reference mode
    must be a no-op for them."""
    factory = {
        "mac-backoff": lambda: MacBackoffScheduler(),
        "round-robin": lambda: RoundRobinScheduler(),
    }[sched_name]
    model_factory = MODEL_FACTORIES["mac"]
    vectorized = _run_once(factory, model_factory, seed=9)
    with scalar_reference():
        reference = _run_once(factory, model_factory, seed=9)
    assert vectorized.delivered == reference.delivered
    assert vectorized.remaining == reference.remaining
    assert vectorized.slots_used == reference.slots_used
    assert vectorized.history == reference.history


@pytest.mark.parametrize("model_name", sorted(MODEL_FACTORIES))
def test_successes_mask_matches_successes(model_name):
    """Random active sets: the batch predicate equals the scalar one.

    Stateful wrappers (loss coins, jammer clock) are compared across
    twin instances so both predicates consume identical streams.
    """
    factory = MODEL_FACTORIES[model_name]
    rng = np.random.default_rng(123)
    mask_model = factory()
    scalar_model = factory()
    m = mask_model.num_links
    for _ in range(60):
        active = rng.random(m) < rng.uniform(0.0, 1.0)
        got = mask_model.successes_mask(active)
        expected = scalar_model.successes(
            [int(e) for e in np.flatnonzero(active)]
        )
        assert set(np.flatnonzero(got).tolist()) == expected
        # Successes are always a subset of the active set.
        assert not (got & ~active).any()


def test_mac_backoff_bincount_stage1_matches_bucket_walk():
    """The no-history bincount sifting path (the production path) must
    serve the same packets in the same order as the history-recording
    bucket walk, from the same seed.

    The budget is capped inside stage 1 so the comparison is exact:
    stage 2 legitimately diverges between history modes (the recording
    branch draws extra `choice` samples).
    """
    import math

    model = MODEL_FACTORIES["mac"]()
    scheduler = MacBackoffScheduler()
    rng = np.random.default_rng(31)
    # Stage 1 only engages above the stage-2 takeover population
    # (~1100 packets at the default phi/delta), so go big.
    requests = list(rng.integers(0, model.num_links, size=3000))
    n = len(requests)
    factor = scheduler._survival_factor()
    stage1_total = sum(
        max(1, math.floor(factor**i * n))
        for i in range(1, scheduler._stage1_rounds(n) + 1)
    )
    assert stage1_total > 2, "instance too small to exercise stage 1"
    budget = stage1_total - 1  # stays inside stage 1, cuts a round short
    fast = scheduler.run(
        model, requests, budget, rng=np.random.default_rng(8)
    )
    slow = scheduler.run(
        model,
        requests,
        budget,
        rng=np.random.default_rng(8),
        record_history=True,
    )
    assert fast.delivered == slow.delivered
    assert fast.remaining == slow.remaining
    assert fast.slots_used == slow.slots_used


def test_successes_mask_empty_and_shape():
    model = _affectance_model()
    empty = model.successes_mask(np.zeros(model.num_links, dtype=bool))
    assert not empty.any()
    from repro.errors import SchedulingError

    with pytest.raises(SchedulingError):
        model.successes_mask(np.zeros(model.num_links + 1, dtype=bool))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    threshold=st.floats(min_value=0.2, max_value=2.0),
    density=st.floats(min_value=0.05, max_value=0.95),
)
def test_affectance_mask_property(seed, threshold, density):
    """Property sweep: random W, threshold, and active set agree with
    the scalar affectance criterion."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 14))
    model = AffectanceThresholdModel(
        mac_network(m), _random_weights(m, seed=seed), threshold=threshold
    )
    active = rng.random(m) < density
    got = model.successes_mask(active)
    expected = model.successes([int(e) for e in np.flatnonzero(active)])
    assert set(np.flatnonzero(got).tolist()) == expected


def test_batch_evaluator_incremental_drop():
    """The cached-submatrix evaluator stays correct as links drain."""
    model = _affectance_model()
    busy = np.arange(model.num_links, dtype=np.int64)
    evaluator = model.batch_evaluator(busy)
    rng = np.random.default_rng(6)
    while busy.size > 1:
        transmit = rng.random(busy.size) < 0.6
        got = evaluator.successes_local(transmit)
        expected = model.successes([int(e) for e in busy[transmit]])
        assert set(busy[got].tolist()) == expected
        keep = np.ones(busy.size, dtype=bool)
        keep[int(rng.integers(busy.size))] = False
        busy = busy[keep]
        evaluator.drop(keep)

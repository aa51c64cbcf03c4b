"""The run-loop backend layer: selection, chunked RNG, lazy history.

Complements ``test_kernel_parity`` (which pins full-run equality per
backend × scheduler × model) with the machinery-level contracts:

* chunk-pre-drawn uniforms equal per-slot draws for arbitrary
  take/chunk interleavings, and the generator lands on the exact
  per-slot stream position afterwards (hypothesis sweep);
* backend resolution — ``auto`` and ``numba`` as aliases for
  ``numpy``, the scalar reference winning ties, per-cell backend
  pinning in sharded sweeps;
* the kernel's shared idle mask is an *enforced* read-only view;
* ``LazySlotHistory`` behaves like the eager ``List[SlotRecord]`` it
  replaced (equality, concatenation, merge, feasibility consumers).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.network.topology import mac_network
from repro.staticsched import DecayScheduler, KvScheduler, SingleHopScheduler
from repro.staticsched.base import LazySlotHistory, RunResult, SlotRecord
from repro.staticsched.kernel import make_run_state, scalar_reference
from repro.staticsched.runloop import (
    BACKENDS,
    ChunkedUniforms,
    available_backends,
    default_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)


def _random_weights(m: int, seed: int, scale: float = 0.35) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.random((m, m)) * scale
    np.fill_diagonal(matrix, 1.0)
    return matrix


def _affectance_model(m: int = 10, seed: int = 11, threshold: float = 1.0):
    return AffectanceThresholdModel(
        mac_network(m), _random_weights(m, seed=seed), threshold=threshold
    )


# ----------------------------------------------------------------------
# Chunked RNG parity
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chunk_slots=st.integers(min_value=1, max_value=80),
    takes=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                   max_size=30),
)
def test_chunked_uniforms_match_per_slot_draws(seed, chunk_slots, takes):
    """Any interleaving of take sizes and chunk sizes replays the
    stream of separate per-slot draws, values and final state both."""
    ref_gen = np.random.default_rng(seed)
    expected = [ref_gen.random(k).copy() for k in takes]

    gen = np.random.default_rng(seed)
    chunk = ChunkedUniforms(gen, chunk_slots=chunk_slots)
    got = [chunk.take(k).copy() for k in takes]
    chunk.finalize()

    for want, have in zip(expected, got):
        assert np.array_equal(want, have)
    # finalize() must rewind overdraw: the generator sits exactly
    # where the per-slot draws left theirs.
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    assert gen.random() == ref_gen.random()


def test_chunked_uniforms_shared_generator_across_runs():
    """Back-to-back runs on one generator (the protocol's pattern)
    stay aligned with the per-slot reference."""
    takes_a, takes_b = [5, 5, 3], [7, 2]
    ref = np.random.default_rng(3)
    expected = [ref.random(k).copy() for k in takes_a + takes_b]

    gen = np.random.default_rng(3)
    got = []
    for takes in (takes_a, takes_b):
        chunk = ChunkedUniforms(gen, chunk_slots=4)
        got.extend(chunk.take(k).copy() for k in takes)
        chunk.finalize()
    for want, have in zip(expected, got):
        assert np.array_equal(want, have)
    assert gen.bit_generator.state == ref.bit_generator.state


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def test_backend_registry_names():
    assert BACKENDS == ("auto", "numpy", "numba", "scalar")
    assert available_backends() == ("scalar", "kernel", "numpy")


def test_resolve_auto_and_numba_fallback():
    # Both names are aliases kept so older spec documents still load.
    assert resolve_backend("numba") == resolve_backend("auto") == "numpy"


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        resolve_backend("fortran")
    with pytest.raises(ConfigurationError):
        set_default_backend("fortran")
    with pytest.raises(ConfigurationError):
        with use_backend("fortran"):
            pass


def test_use_backend_nests_and_restores():
    assert default_backend() == "auto"
    with use_backend("kernel"):
        assert resolve_backend() == "kernel"
        with use_backend("numpy"):
            assert resolve_backend() == "numpy"
        assert resolve_backend() == "kernel"
    assert resolve_backend() == "numpy"


def test_scalar_reference_wins_ties():
    """A scalar verification context cannot be overridden from below —
    nested explicit backend selections still resolve to scalar."""
    with scalar_reference():
        assert resolve_backend() == "scalar"
        with use_backend("numpy"):
            assert resolve_backend() == "scalar"
        assert resolve_backend("kernel") == "scalar"
    assert resolve_backend() != "scalar"


def test_set_default_backend_round_trip():
    try:
        set_default_backend("kernel")
        assert resolve_backend() == "kernel"
    finally:
        set_default_backend("auto")


# ----------------------------------------------------------------------
# Enforced read-only shared masks
# ----------------------------------------------------------------------


def test_kernel_idle_mask_is_read_only():
    """The kernel's reused no-success mask is an enforced invariant:
    writing through it raises instead of corrupting later slots."""
    model = _affectance_model()
    kernel, _, _, _ = make_run_state(model, [0, 1, 2], record_history=False)
    idle = kernel.transmit(np.zeros(kernel.size, dtype=bool))
    assert not idle.any()
    with pytest.raises(ValueError):
        idle[0] = True
    # Compaction rebuilds the mask; the fresh one is read-only too.
    kernel.transmit(np.ones(kernel.size, dtype=bool))
    if kernel.last_keep is not None:
        idle2 = kernel.transmit(np.zeros(kernel.size, dtype=bool))
        with pytest.raises(ValueError):
            idle2[0] = True


# ----------------------------------------------------------------------
# Lazy history
# ----------------------------------------------------------------------


def _kv_history(backend: str, seed: int = 5):
    model = _affectance_model()
    rng = np.random.default_rng(seed)
    requests = list(rng.integers(0, model.num_links, size=20))
    with use_backend(backend):
        return KvScheduler().run(
            model, requests, 120,
            rng=np.random.default_rng(seed + 1), record_history=True,
        )


def test_lazy_history_list_compatibility():
    result = _kv_history("numpy")
    history = result.history
    assert isinstance(history, LazySlotHistory)
    assert len(history) > 0
    # Indexing, negative indexing, slicing, iteration.
    first = history[0]
    assert isinstance(first, SlotRecord)
    assert history[-1] == history[len(history) - 1]
    assert history[1:3] == list(history)[1:3]
    assert all(isinstance(r, SlotRecord) for r in history)
    with pytest.raises(IndexError):
        history[len(history)]
    # Equality against a plain list of SlotRecords, both directions.
    eager = [SlotRecord(r.attempted, r.succeeded) for r in history]
    assert history == eager
    assert eager == list(history)
    assert not (history == eager[:-1])
    # Concatenation materialises like list + list.
    assert history + eager == eager + eager
    assert eager + history == eager + eager


def test_lazy_history_merge_after():
    a = _kv_history("numpy", seed=5)
    b = _kv_history("kernel", seed=9)
    merged = a.merge_after(
        RunResult(
            delivered=b.delivered,
            remaining=b.remaining,
            slots_used=b.slots_used,
            history=b.history,
        )
    )
    assert merged.history == list(a.history) + list(b.history)
    assert merged.slots_used == a.slots_used + b.slots_used


@pytest.mark.parametrize("backend", ["kernel", "numpy"])
def test_history_feasibility_consumers(backend):
    """The schedule-feasibility pattern used across the test suite —
    re-checking every recorded slot against the model's predicate —
    keeps working on lazily materialised histories."""
    model = _affectance_model()
    rng = np.random.default_rng(2)
    requests = list(rng.integers(0, model.num_links, size=18))
    with use_backend(backend):
        result = SingleHopScheduler().run(
            model, requests, 60, rng=0, record_history=True
        )
    assert result.history is not None
    assert len(result.history) == result.slots_used
    for record in result.history:
        attempted = list(record.attempted)
        assert set(record.succeeded) == model.successes(attempted)
        assert attempted == sorted(attempted)
        assert list(record.succeeded) == sorted(record.succeeded)


# ----------------------------------------------------------------------
# Threshold-boundary parity (exact-summation guard paths)
# ----------------------------------------------------------------------


def _boundary_model(m: int = 6, threshold: float = 1.0):
    """Impacts land exactly on the threshold for 1 + 2·threshold
    transmitters: 0.5 off-diagonal entries, integer-valued sums."""
    weights = np.full((m, m), 0.5)
    np.fill_diagonal(weights, 1.0)
    return AffectanceThresholdModel(
        mac_network(m), weights, threshold=threshold
    )


@pytest.mark.parametrize("backend", [
    name for name in available_backends() if name != "scalar"
])
@pytest.mark.parametrize("sched_factory", [
    lambda: KvScheduler(initial_probability=0.6),
    lambda: SingleHopScheduler(),
], ids=["kv", "single-hop"])
def test_threshold_boundary_parity(backend, sched_factory):
    requests = list(range(6)) * 3
    with use_backend(backend):
        run = sched_factory().run(
            _boundary_model(), requests, 200,
            rng=np.random.default_rng(3), record_history=True,
        )
    with scalar_reference():
        reference = sched_factory().run(
            _boundary_model(), requests, 200,
            rng=np.random.default_rng(3), record_history=True,
        )
    assert run.delivered == reference.delivered
    assert run.remaining == reference.remaining
    assert run.history == reference.history


# ----------------------------------------------------------------------
# Generator-state parity through protocol-shaped call sequences
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", [
    name for name in available_backends() if name != "scalar"
])
def test_generator_state_matches_reference_after_runs(backend):
    """Back-to-back runs sharing one generator (the dynamic protocol's
    exact pattern) leave the stream where the reference leaves it."""
    model = _affectance_model()
    rng = np.random.default_rng(8)
    requests = list(rng.integers(0, model.num_links, size=22))

    second = list(rng.integers(0, model.num_links, size=9))

    gen_ref = np.random.default_rng(13)
    with scalar_reference():
        ref_a = KvScheduler().run(model, requests, 90, rng=gen_ref)
        ref_mid = gen_ref.random()
        ref_b = DecayScheduler().run(model, second, 50, rng=gen_ref)

    gen = np.random.default_rng(13)
    with use_backend(backend):
        got_a = KvScheduler().run(model, requests, 90, rng=gen)
        got_mid = gen.random()
        got_b = DecayScheduler().run(model, second, 50, rng=gen)
    assert got_a.delivered == ref_a.delivered
    assert got_mid == ref_mid
    assert got_b.delivered == ref_b.delivered
    assert gen.bit_generator.state == gen_ref.bit_generator.state


# ----------------------------------------------------------------------
# Backend threading through sharded sweeps
# ----------------------------------------------------------------------


def test_cellspec_backend_pins_and_pickles():
    from repro.sim.sharding import CellSpec, SerialExecutor, sweep_specs

    # No `requires`: the pair builder is registered by this module's
    # import and the executor is in-process.
    specs = sweep_specs(
        [0.02], [0], frames=25,
        pair="runloop-test-pair", backend="numpy",
    )
    assert all(spec.backend == "numpy" for spec in specs)
    clone = pickle.loads(pickle.dumps(specs[0]))
    assert clone.backend == "numpy"

    kernel_specs = [
        CellSpec(
            rate=s.rate, seed=s.seed, frames=s.frames,
            rate_index=s.rate_index, pair=s.pair,
            requires=s.requires, backend="kernel",
        )
        for s in specs
    ]
    fused = SerialExecutor().map(specs)
    kernel = SerialExecutor().map(kernel_specs)
    # Backends are bit-identical, so pinning different backends per
    # cell cannot change any record.
    for a, b in zip(fused, kernel):
        assert a == b


def _runloop_test_pair(rate, seed, **kwargs):
    import repro

    model = _affectance_model(m=8, seed=21)
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, rate, num_generators=2, rng=seed + 100
    )
    protocol = repro.DynamicProtocol(
        model, SingleHopScheduler(), rate, t_scale=0.01, rng=seed,
        store=injection.store,
    )
    return protocol, injection


def _register_test_builders():
    from repro.sim.sharding import register_pair_builder

    register_pair_builder("runloop-test-pair", _runloop_test_pair)


_register_test_builders()

"""Bulk ``indices_for_range`` emitters against the per-slot reference.

Markov-modulated, window-adversary and Poisson-batch injection each
override ``indices_for_range``. Every override must emit exactly what
the base class's per-slot fallback (``InjectionProcess.
indices_for_range``, which calls ``indices_for_slot`` slot by slot)
emits on a twin process built from the same seed: the same ids, the
same store contents (paths and ``injected_at`` stamps) and the same
``state_dict()`` afterwards, over any sequence of ranges — empty ones
and single-slot queries included.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectionError
from repro.injection import markov
from repro.injection.adversarial import (
    BurstyAdversary,
    SawtoothAdversary,
    SmoothAdversary,
    TargetedAdversary,
)
from repro.injection.base import InjectionProcess
from repro.injection.markov import MarkovModulatedInjection, PoissonBatchInjection
from repro.injection.stochastic import PathGenerator
from repro.interference.packet_routing import PacketRoutingModel
from repro.network.routing import build_routing_table
from repro.network.topology import grid_network
from repro.utils.rng import spawn_rngs

GRID = grid_network(3, 3)
MODEL = PacketRoutingModel(GRID)
ROUTING = build_routing_table(GRID)
PATHS = [tuple(ROUTING.path(s, d)) for s, d in ROUTING.pairs()]

#: A query: ``("range", length)`` or ``("slot", 1)`` at the cursor.
queries = st.lists(
    st.one_of(
        st.tuples(st.just("range"), st.integers(min_value=0, max_value=160)),
        st.tuples(st.just("slot"), st.just(1)),
    ),
    min_size=1,
    max_size=12,
)

paths = st.lists(
    st.integers(min_value=0, max_value=MODEL.num_links - 1),
    min_size=1,
    max_size=4,
).map(tuple)


@st.composite
def distributions(draw):
    """Path distributions summing to at most 1, often to less."""
    pool = draw(st.lists(paths, min_size=0, max_size=5))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(pool),
            max_size=len(pool),
        )
    )
    total = draw(st.sampled_from([1.0, 0.999, 0.5, 0.05]))
    scale = total / sum(weights) if sum(weights) > 0 else 0.0
    return [(path, weight * scale) for path, weight in zip(pool, weights)]


switch_probabilities = st.one_of(
    st.just(1.0), st.floats(min_value=0.01, max_value=1.0)
)


def _assert_twins(fast, reference, calls):
    """Drive both processes through ``calls`` and compare everything."""
    cursor = 0
    for kind, length in calls:
        if kind == "slot":
            got = np.asarray(fast.indices_for_slot(cursor), dtype=np.int64)
            want = np.asarray(reference.indices_for_slot(cursor), dtype=np.int64)
        else:
            got = fast.indices_for_range(cursor, cursor + length)
            want = InjectionProcess.indices_for_range(
                reference, cursor, cursor + length
            )
            assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        cursor += length
    fast_store = fast.store.state_dict()
    reference_store = reference.store.state_dict()
    assert fast_store.keys() == reference_store.keys()
    for key, value in fast_store.items():
        np.testing.assert_array_equal(value, reference_store[key], err_msg=key)
    assert fast.state_dict() == reference.state_dict()


@settings(max_examples=80, deadline=None)
@given(
    generators=st.lists(
        distributions().map(PathGenerator), min_size=1, max_size=4
    ),
    p_on_off=switch_probabilities,
    p_off_on=switch_probabilities,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    block_slots=st.sampled_from([1, 2, 7, markov._BLOCK_SLOTS]),
    calls=queries,
)
def test_markov_range_matches_per_slot(
    generators, p_on_off, p_off_on, seed, block_slots, calls
):
    """Bit-exact for any chain parameters, and any block size (small
    blocks force refills, odd leftovers and overdraw rewinds)."""

    def build():
        return MarkovModulatedInjection(generators, p_on_off, p_off_on, rng=seed)

    with mock.patch.object(markov, "_BLOCK_SLOTS", block_slots):
        _assert_twins(build(), build(), calls)


@settings(max_examples=40, deadline=None)
@given(
    adversary_cls=st.sampled_from(
        [SmoothAdversary, BurstyAdversary, SawtoothAdversary, TargetedAdversary]
    ),
    window=st.integers(min_value=1, max_value=12),
    rate=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    calls=queries,
)
def test_adversary_range_matches_per_slot(
    adversary_cls, window, rate, seed, calls
):
    """Same packets, the same RNG and the same cached ``plans``."""

    def build():
        return adversary_cls(MODEL, PATHS, window, rate, rng=seed)

    _assert_twins(build(), build(), calls)


@settings(max_examples=40, deadline=None)
@given(
    distribution=distributions(),
    batch_mean=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    calls=queries,
)
def test_poisson_range_matches_per_slot(distribution, batch_mean, seed, calls):
    total = sum(p for _, p in distribution)
    if distribution and total > 0:
        # Poisson batches need a full distribution (sum exactly 1).
        distribution = [(path, p / total) for path, p in distribution]
    else:
        distribution = []

    def build():
        return PoissonBatchInjection(distribution, batch_mean, rng=seed)

    _assert_twins(build(), build(), calls)


def test_markov_draw_on_a_cumulative_boundary():
    """A draw equal to a cumulative value picks the next path, and one
    equal to the last injects nothing: the scalar ``draw < cumulative``
    rule, which ``searchsorted(..., side="right")`` must keep."""
    for seed in range(1000):
        # The process splits its seed into one stream per generator
        # plus one for the initial chain states.
        draws_rng, state_rng = spawn_rngs(seed, 2)
        u = draws_rng.random(4)
        if state_rng.random() < 0.5 and u[0] < u[3] <= 2 * u[0]:
            break
    # With both switch probabilities 1 the chain flips every slot, so
    # an ON start reads path draws u[0] (slot 0) and u[3] (slot 2).
    # Sterbenz: u[3] - u[0] is exact, so the cumulative values are
    # exactly u[0] and u[3].
    generator = PathGenerator([((0,), float(u[0])), ((1,), float(u[3] - u[0]))])

    def build():
        return MarkovModulatedInjection([generator], 1.0, 1.0, rng=seed)

    fast = build()
    _assert_twins(fast, build(), [("range", 4)])
    assert fast.store.injected_at.tolist() == [0]
    assert fast.store.path_of(0) == (1,)


def _markov():
    generators = [
        PathGenerator([((0,), 0.4), ((0, 1), 0.3)]),
        PathGenerator([((1,), 0.5)]),
    ]
    return MarkovModulatedInjection(generators, 0.3, 0.4, rng=5)


def test_markov_range_rejects_out_of_order_queries():
    process = _markov()
    before = process.state_dict()
    with pytest.raises(InjectionError):
        process.indices_for_range(5, 10)
    # The refused query consumed nothing.
    assert process.state_dict() == before
    assert len(process.store) == 0

    process.indices_for_range(0, 10)
    with pytest.raises(InjectionError):
        process.indices_for_range(0, 10)
    with pytest.raises(InjectionError):
        process.indices_for_slot(11)
    process.indices_for_slot(10)
    process.indices_for_range(11, 20)
    assert process.state_dict()["next_slot"] == 20

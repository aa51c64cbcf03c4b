"""Bursty-but-stationary injection processes beyond the paper's models.

The paper's stochastic model (Section 2.1) requires slot-independence
(property (b)) and one packet per generator per slot (property (c)).
Real traffic is burstier. These processes relax exactly one property
each, giving controlled stress tests that sit *between* the stochastic
model and the window adversary:

* :class:`MarkovModulatedInjection` keeps property (c) but drops (b):
  each generator carries an ON/OFF two-state Markov chain; it injects
  only while ON. The process is stationary (started from the chain's
  stationary distribution), so a long-run injection rate
  ``lambda = ||W . F||_inf`` is still exact and the protocol's
  provisioning story applies — but arrivals cluster into ON bursts
  whose mean length is ``1 / p_off``.
* :class:`PoissonBatchInjection` keeps (b) but drops (c): a single
  infinite-user population injects a Poisson-distributed *batch* each
  slot. This is the classical multiple-access arrival model (ALOHA
  lineage) and the natural "infinitely many users" limit the related
  work studies.

Both sample a frame with ``indices_for_range`` and stay bit-identical
to their per-slot ``indices_for_slot``: the Markov process walks each
chain one ON/OFF sojourn at a time over a block of its generator's
uniforms, and the Poisson process keeps its per-slot draws but
allocates the range's packets in one call.

Both expose the same ``mean_usage`` / ``injection_rate`` interface as
:class:`~repro.injection.stochastic.StochasticInjection`, so frame
provisioning and the stability experiments treat them uniformly.
:func:`empirical_usage` closes the loop by measuring the realised mean
usage of *any* process over a horizon.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, InjectionError
from repro.injection.base import InjectionProcess
from repro.injection.stochastic import PathDist, PathGenerator
from repro.injection.store import PacketStore, gather_paths, path_pool
from repro.interference.base import InterferenceModel
from repro.utils.rng import ChunkedUniforms, RngLike, spawn_rngs

#: Slots per uniform block in :meth:`MarkovModulatedInjection.indices_for_range`
#: (two draws per slot at most), so a long frame is walked in bounded
#: memory rather than one ``2 * L`` draw.
_BLOCK_SLOTS = 4096


class MarkovModulatedInjection(InjectionProcess):
    """Finite generators gated by independent ON/OFF Markov chains.

    Each generator behaves like a Section-2.1 :class:`PathGenerator`
    while its chain is ON and stays silent while OFF. Chains evolve
    once per slot with switching probabilities ``p_on_off`` (leave ON)
    and ``p_off_on`` (leave OFF); the stationary ON-probability is
    ``pi_on = p_off_on / (p_on_off + p_off_on)``.

    Starting every chain from its stationary distribution makes the
    process time-stationary, so the long-run mean usage vector is
    exactly ``pi_on`` times the always-on usage — property (a) of the
    paper's model holds, property (b) (independence across slots) is
    deliberately violated. Mean burst length is ``1 / p_on_off`` slots.

    Parameters
    ----------
    generators:
        The per-generator path distributions (conditioned on ON).
    p_on_off, p_off_on:
        Per-slot switching probabilities, both in ``(0, 1]``.
    rng:
        Seed or generator; split into one stream per generator plus one
        for the chain states.
    """

    def __init__(
        self,
        generators: Sequence[PathGenerator],
        p_on_off: float,
        p_off_on: float,
        rng: RngLike = None,
        store: Optional[PacketStore] = None,
    ):
        super().__init__(store=store)
        if not generators:
            raise InjectionError("at least one generator is required")
        if not 0.0 < p_on_off <= 1.0:
            raise ConfigurationError(
                f"p_on_off must be in (0, 1], got {p_on_off}"
            )
        if not 0.0 < p_off_on <= 1.0:
            raise ConfigurationError(
                f"p_off_on must be in (0, 1], got {p_off_on}"
            )
        self._generators = list(generators)
        self._p_on_off = float(p_on_off)
        self._p_off_on = float(p_off_on)
        streams = spawn_rngs(rng, len(self._generators) + 1)
        self._rngs = streams[: len(self._generators)]
        state_rng = streams[-1]
        pi_on = self.stationary_on_probability
        self._states = [
            bool(state_rng.random() < pi_on) for _ in self._generators
        ]
        self._next_slot = 0
        # Range-sampling state, built once: each generator's running
        # sum of path probabilities (np.cumsum adds in the scalar
        # loop's order, so the floats are identical), and one CSR pool
        # of every generator's paths, generator g's path i at pool row
        # ``self._pool_base[g] + i``.
        self._cumulative = [
            np.cumsum([p for _, p in g.distribution], dtype=float)
            for g in self._generators
        ]
        self._pool_base = np.cumsum(
            [0] + [len(g.distribution) for g in self._generators[:-1]]
        )
        self._pool_links, self._pool_offsets = path_pool(
            [path for g in self._generators for path, _ in g.distribution]
        )

    @property
    def stationary_on_probability(self) -> float:
        """``pi_on = p_off_on / (p_on_off + p_off_on)``."""
        return self._p_off_on / (self._p_on_off + self._p_off_on)

    @property
    def mean_burst_length(self) -> float:
        """Expected number of consecutive ON slots (``1 / p_on_off``)."""
        return 1.0 / self._p_on_off

    @property
    def generators(self) -> List[PathGenerator]:
        return list(self._generators)

    def state_dict(self) -> dict:
        """Mutable state: per-generator RNGs, chain states, slot cursor."""
        return {
            "rngs": [rng.bit_generator.state for rng in self._rngs],
            "states": [bool(s) for s in self._states],
            "next_slot": self._next_slot,
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import restore_generator_state

        states = state.get("rngs")
        chain = state.get("states")
        if not isinstance(states, list) or len(states) != len(self._rngs):
            raise ConfigurationError(
                "Markov injection state does not match the generator count"
            )
        if not isinstance(chain, list) or len(chain) != len(self._states):
            raise ConfigurationError(
                "Markov injection state has a mismatched chain-state vector"
            )
        for rng, rng_state in zip(self._rngs, states):
            restore_generator_state(rng, rng_state)
        self._states = [bool(s) for s in chain]
        self._next_slot = int(state["next_slot"])

    def mean_usage(self, num_links: int) -> np.ndarray:
        """Stationary mean per-slot usage: ``pi_on`` times the ON usage."""
        usage = np.zeros(num_links, dtype=float)
        for generator in self._generators:
            usage += generator.mean_usage(num_links)
        return self.stationary_on_probability * usage

    def injection_rate(self, model: InterferenceModel) -> float:
        """Long-run ``lambda = ||W . F||_inf`` under ``model``."""
        return model.injection_norm(self.mean_usage(model.num_links))

    def indices_for_slot(self, slot: int) -> List[int]:
        if slot != self._next_slot:
            raise InjectionError(
                f"Markov-modulated injection must be queried in slot order; "
                f"expected slot {self._next_slot}, got {slot}"
            )
        self._next_slot += 1
        indices: List[int] = []
        for index, (generator, rng) in enumerate(
            zip(self._generators, self._rngs)
        ):
            if self._states[index]:
                draw = rng.random()
                cumulative = 0.0
                for path, probability in generator.distribution:
                    cumulative += probability
                    if draw < cumulative:
                        indices.append(self._allocate(path, slot))
                        break
                if rng.random() < self._p_on_off:
                    self._states[index] = False
            else:
                if rng.random() < self._p_off_on:
                    self._states[index] = True
        return indices

    def indices_for_range(self, start_slot: int, end_slot: int) -> np.ndarray:
        """Store indices injected in ``[start_slot, end_slot)``, bit-exact.

        Emits exactly what :meth:`indices_for_slot` (the scalar
        reference) emits slot by slot — the same ids, paths and stamps,
        and the same RNG and chain end states — at a cost per ON/OFF
        sojourn instead of per slot: :meth:`_walk` advances each
        generator's chain over a block of its own uniforms, one
        ``searchsorted`` maps the ON slots' path draws to paths, and
        the range's packets are allocated in (slot, generator) order in
        one call.
        """
        length = end_slot - start_slot
        if length <= 0:
            return np.empty(0, dtype=np.int64)
        if start_slot != self._next_slot:
            raise InjectionError(
                f"Markov-modulated injection must be queried in slot order; "
                f"expected slot {self._next_slot}, got {start_slot}"
            )
        slot_runs: List[np.ndarray] = []
        row_runs: List[np.ndarray] = []
        for index, cumulative in enumerate(self._cumulative):
            slots, draws = self._walk(index, length)
            paths = np.searchsorted(cumulative, draws, side="right")
            # A draw at or above the last cumulative value injects nothing.
            hit = paths < cumulative.size
            slot_runs.append(slots[hit])
            row_runs.append(self._pool_base[index] + paths[hit])
        self._next_slot = end_slot
        slots = np.concatenate(slot_runs)
        # Rows run in generator order, so a stable sort by slot gives the
        # per-slot loop's (slot, generator) allocation order.
        order = np.argsort(slots, kind="stable")
        links, lengths = gather_paths(
            self._pool_links, self._pool_offsets, np.concatenate(row_runs)[order]
        )
        return self._store.allocate_flat(links, lengths, start_slot + slots[order])

    def _walk(self, index: int, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Advance generator ``index``'s chain by ``length`` slots.

        Returns the ON slots (offsets into the range) and their path
        draws. Per slot, :meth:`indices_for_slot` draws a path uniform
        and then a switch uniform while ON, and one switch uniform
        while OFF. So an OFF sojourn ends at its first draw below
        ``p_off_on``, and an ON sojourn, read as (path, switch) pairs,
        ends at its first switch draw below ``p_on_off``; both ends are
        found by bisecting the block's hit positions. The block's
        unused tail is rewound (:class:`ChunkedUniforms`), leaving the
        generator where the per-slot draws leave it.
        """
        chunk = ChunkedUniforms(
            self._rngs[index], chunk_slots=min(length, _BLOCK_SLOTS)
        )
        on = self._states[index]
        slot = 0
        slot_runs: List[np.ndarray] = []
        draw_runs: List[np.ndarray] = []
        while slot < length:
            # At least one slot's draws; an ON slot needs two.
            block = chunk.peek(2)
            size = block.size
            # Hit positions, each list closed by a ``size`` sentinel
            # that no sojourn inside the block can reach.
            off_hits = np.flatnonzero(block < self._p_off_on).tolist()
            off_hits.append(size)
            # An ON sojourn starting at ``pos`` reads its switch draws
            # at pos + 1, pos + 3, ...: hits split by position parity.
            switch = block < self._p_on_off
            on_hits = (
                (2 * np.flatnonzero(switch[0::2])).tolist() + [size],
                (2 * np.flatnonzero(switch[1::2]) + 1).tolist() + [size],
            )
            pos = 0
            starts: List[int] = []
            counts: List[int] = []
            firsts: List[int] = []
            while slot < length:
                if on:
                    pairs = min((size - pos) // 2, length - slot)
                    if not pairs:
                        break
                    hits = on_hits[(pos + 1) & 1]
                    hit = hits[bisect_left(hits, pos + 1)]
                    if hit < pos + 2 * pairs:
                        count = (hit - pos + 1) // 2
                        on = False
                    else:
                        count = pairs
                    starts.append(pos)
                    counts.append(count)
                    firsts.append(slot)
                    pos += 2 * count
                else:
                    avail = min(size - pos, length - slot)
                    if not avail:
                        break
                    hit = off_hits[bisect_left(off_hits, pos)]
                    if hit < pos + avail:
                        count = hit - pos + 1
                        on = True
                    else:
                        count = avail
                    pos += count
                slot += count
            if counts:
                run_lengths = np.asarray(counts, dtype=np.int64)
                ends = np.cumsum(run_lengths)
                within = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(
                    ends - run_lengths, run_lengths
                )
                slot_runs.append(np.repeat(firsts, run_lengths) + within)
                draw_runs.append(
                    block[np.repeat(starts, run_lengths) + 2 * within]
                )
            chunk.advance(pos)
        chunk.finalize()
        self._states[index] = on
        if not slot_runs:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.concatenate(slot_runs), np.concatenate(draw_runs)


class PoissonBatchInjection(InjectionProcess):
    """Poisson batch arrivals from an infinite-user population.

    In each slot an independent ``Poisson(batch_mean)`` number of
    packets arrives; each packet independently draws its path from
    ``path_distribution`` (probabilities summing to 1). Slots are
    independent and identically distributed — properties (a) and (b)
    of the paper's model hold, but a single slot can carry arbitrarily
    many packets, so the finite-generator property (c) is dropped.

    The mean usage vector is ``batch_mean`` times the per-packet
    expected usage, so ``injection_rate`` remains exact.
    """

    def __init__(
        self,
        path_distribution: PathDist,
        batch_mean: float,
        rng: RngLike = None,
        store: Optional[PacketStore] = None,
    ):
        super().__init__(store=store)
        if batch_mean < 0:
            raise ConfigurationError(
                f"batch_mean must be non-negative, got {batch_mean}"
            )
        total = 0.0
        cleaned: List[Tuple[Tuple[int, ...], float]] = []
        for path, probability in path_distribution:
            if probability < 0:
                raise InjectionError(
                    f"negative path probability {probability}"
                )
            if len(path) == 0:
                raise InjectionError("path distribution contains an empty path")
            total += probability
            cleaned.append((tuple(int(e) for e in path), float(probability)))
        if cleaned and abs(total - 1.0) > 1e-9:
            raise InjectionError(
                f"path probabilities must sum to 1, got {total}"
            )
        self._paths = cleaned
        # Plain floats: a bisect per packet beats a scalar searchsorted.
        self._cumulative = np.cumsum([p for _, p in cleaned]).tolist()
        self._pool_links, self._pool_offsets = path_pool(
            [path for path, _ in cleaned]
        )
        self._batch_mean = float(batch_mean)
        (self._rng,) = spawn_rngs(rng, 1)

    @property
    def batch_mean(self) -> float:
        return self._batch_mean

    def state_dict(self) -> dict:
        """Mutable state: the single arrival RNG."""
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        from repro.utils.rng import restore_generator_state

        restore_generator_state(self._rng, state["rng"])

    def mean_usage(self, num_links: int) -> np.ndarray:
        """``batch_mean`` times the per-packet expected link usage."""
        usage = np.zeros(num_links, dtype=float)
        for path, probability in self._paths:
            for link_id in path:
                usage[link_id] += probability
        return self._batch_mean * usage

    def injection_rate(self, model: InterferenceModel) -> float:
        """Exact ``lambda = ||W . F||_inf`` under ``model``."""
        return model.injection_norm(self.mean_usage(model.num_links))

    def _batch_rows(self) -> List[int]:
        """Path rows of one slot's batch, drawn in the per-slot order."""
        count = int(self._rng.poisson(self._batch_mean))
        if not count:
            return []
        # One random(count) call yields the same stream values as
        # ``count`` scalar draws, so the draw order is unchanged.
        last = len(self._paths) - 1
        return [
            min(bisect_right(self._cumulative, draw), last)
            for draw in self._rng.random(count).tolist()
        ]

    def indices_for_slot(self, slot: int) -> List[int]:
        if not self._paths or self._batch_mean == 0.0:
            return []
        return [
            self._allocate(self._paths[row][0], slot)
            for row in self._batch_rows()
        ]

    def indices_for_range(self, start_slot: int, end_slot: int) -> np.ndarray:
        """Store indices injected in ``[start_slot, end_slot)``, bit-exact.

        The draws stay per slot — ``poisson`` consumes a variable number
        of uniforms, so the interleaved stream cannot be drawn in bulk —
        but the range's packets are allocated in one call rather than
        one per packet.
        """
        if not self._paths or self._batch_mean == 0.0:
            return np.empty(0, dtype=np.int64)
        rows: List[int] = []
        slots: List[int] = []
        for slot in range(start_slot, end_slot):
            batch = self._batch_rows()
            if batch:
                rows.extend(batch)
                slots.extend([slot] * len(batch))
        links, lengths = gather_paths(
            self._pool_links,
            self._pool_offsets,
            np.asarray(rows, dtype=np.int64),
        )
        return self._store.allocate_flat(
            links, lengths, np.asarray(slots, dtype=np.int64)
        )


def empirical_usage(
    process: InjectionProcess, num_links: int, horizon: int
) -> np.ndarray:
    """Measured mean per-slot usage of ``process`` over ``horizon`` slots.

    Consumes the process (stateful processes advance); use a freshly
    seeded instance when comparing against :meth:`mean_usage`.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    usage = np.zeros(num_links, dtype=float)
    for slot in range(horizon):
        for packet in process.packets_for_slot(slot):
            for link_id in packet.path:
                usage[link_id] += 1.0
    return usage / horizon


__all__ = [
    "MarkovModulatedInjection",
    "PoissonBatchInjection",
    "empirical_usage",
]

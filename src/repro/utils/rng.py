"""Seeded random-number management.

All randomness in the library flows through :class:`numpy.random.Generator`
objects. Nothing in the package touches numpy's or Python's global RNG
state, so two runs with the same seed are bit-for-bit identical and
independent components can be re-seeded without interfering with each
other.

The idiom used throughout:

* public entry points accept ``rng: Generator | int | None``;
* :func:`ensure_rng` normalises that argument;
* components that need several independent streams (e.g. one per packet
  generator) use :func:`spawn_rngs` or an :class:`RngFactory`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

RngLike = Union[np.random.Generator, int, None]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``None`` yields a freshly-seeded generator, an ``int`` is used as the
    seed, and an existing generator is returned unchanged.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_rngs(rng: RngLike, count: int) -> List[np.random.Generator]:
    """Split ``rng`` into ``count`` statistically independent generators.

    Spawning is deterministic: the same parent seed always produces the
    same children, which keeps multi-component simulations replayable.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    return [np.random.default_rng(s) for s in parent.bit_generator.seed_seq.spawn(count)]


def generator_state(rng: np.random.Generator) -> Dict[str, Any]:
    """Snapshot a generator's bit-generator state as a JSON-able dict.

    PCG64 (the library default) exposes its whole state as plain ints;
    Python's arbitrary-precision integers round-trip through JSON, so
    the snapshot can be serialized and restored bit-exactly.
    """
    return rng.bit_generator.state


def restore_generator_state(
    rng: np.random.Generator, state: Dict[str, Any]
) -> None:
    """Restore a snapshot taken with :func:`generator_state`.

    Raises :class:`repro.errors.ConfigurationError` if the snapshot does
    not match the generator's bit-generator type or shape.
    """
    from repro.errors import ConfigurationError

    if not isinstance(state, dict):
        raise ConfigurationError(
            f"RNG state must be a dict, got {type(state).__name__}"
        )
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"incompatible RNG state: {exc}") from exc


class ChunkedUniforms:
    """Pre-draw uniforms in chunks, bit-identical to per-slot draws.

    numpy generators fill ``random(n)`` from the PCG64 stream exactly
    like ``n`` successive smaller draws, so any re-chunking of the
    draw sequence yields the same values — :meth:`take` hands out the
    next ``k`` stream values whatever the chunk boundaries were.

    The only observable difference a chunk could introduce is
    *overdraw*: at run end the buffer may hold values the per-slot
    loop would never have drawn, leaving the caller's generator too
    far ahead (the dynamic protocol keeps using the same generator for
    the clean-up lottery and later frames). :meth:`finalize` repairs
    this exactly: the bit-generator state is snapshotted before each
    refill, and an under-consumed final chunk rewinds to the snapshot
    and re-draws precisely the consumed count, leaving the generator
    in the same state as per-slot draws would have.
    """

    __slots__ = ("_gen", "_chunk_slots", "_buf", "_cursor", "_state",
                 "_consumed")

    def __init__(self, gen: np.random.Generator, chunk_slots: int = 64):
        self._gen = gen
        self._chunk_slots = max(1, int(chunk_slots))
        self._buf = np.empty(0)
        self._cursor = 0
        self._state = None
        self._consumed = 0

    def refill(self, k: int) -> np.ndarray:
        """Splice the unconsumed tail with a fresh chunk (no consume).

        Resets the cursor to 0 and returns the new buffer; callers
        that consume straight off the buffer (the wave engine) must
        keep :attr:`_cursor`/:attr:`_consumed` in sync so
        :meth:`finalize` can rewind exactly.
        """
        leftover = self._buf[self._cursor:]
        # Snapshot *before* drawing: everything taken after this
        # point can be replayed from here by finalize().
        self._state = self._gen.bit_generator.state
        fresh = self._gen.random(
            max(self._chunk_slots * k, k - leftover.size)
        )
        if leftover.size:
            self._buf = np.concatenate([leftover, fresh])
        else:
            self._buf = fresh
        self._consumed = -int(leftover.size)
        self._cursor = 0
        return self._buf

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` uniforms from the stream (a buffer view)."""
        if self._cursor + k > self._buf.size:
            self.refill(k)
        cursor = self._cursor
        out = self._buf[cursor:cursor + k]
        self._cursor = cursor + k
        self._consumed += k
        return out

    def peek(self, k: int) -> np.ndarray:
        """Every buffered value not yet consumed, at least ``k`` of them.

        Refills under :meth:`take`'s trigger (fewer than ``k`` left)
        but consumes nothing: the caller scans ahead, then hands back
        the count it used with :meth:`advance`. :meth:`finalize` needs
        every refill to be followed by advancing at least the leftover
        (under ``k`` values); a caller that advances ``k - 1`` or more
        after each peek keeps that.
        """
        if self._cursor + k > self._buf.size:
            self.refill(k)
        return self._buf[self._cursor:]

    def advance(self, k: int) -> None:
        """Consume ``k`` values of the last :meth:`peek`."""
        self._cursor += k
        self._consumed += k

    def finalize(self) -> None:
        """Rewind overdraw so the generator matches per-slot draws."""
        if self._state is not None and self._cursor < self._buf.size:
            # A refill is only ever followed by consuming at least the
            # leftover (take consumes past it), so _consumed >= 0 here.
            self._gen.bit_generator.state = self._state
            if self._consumed > 0:
                self._gen.random(self._consumed)
        self._buf = np.empty(0)
        self._cursor = 0
        self._state = None


class RngFactory:
    """Hands out independent generators derived from one master seed.

    Useful when the number of consumers is not known up front (e.g. one
    stream per injected packet batch). Each call to :meth:`next` returns a
    new independent generator; the sequence of generators is a pure
    function of the master seed.
    """

    def __init__(self, seed: RngLike = None):
        parent = ensure_rng(seed)
        self._seed_seq = parent.bit_generator.seed_seq
        self._count = 0

    def next(self) -> np.random.Generator:
        """Return the next independent generator in the sequence."""
        child = self._seed_seq.spawn(self._count + 1)[self._count]
        self._count += 1
        return np.random.default_rng(child)

    @property
    def spawned(self) -> int:
        """Number of generators handed out so far."""
        return self._count


def random_subset(rng: np.random.Generator, items: list, probability: float) -> list:
    """Return a subset of ``items`` keeping each independently w.p. ``probability``."""
    if not items:
        return []
    mask = rng.random(len(items)) < probability
    return [item for item, keep in zip(items, mask) if keep]


def geometric_delay(rng: np.random.Generator, success_probability: float) -> int:
    """Sample a geometric waiting time (number of failures before success)."""
    if not 0.0 < success_probability <= 1.0:
        raise ValueError(
            f"success probability must be in (0, 1], got {success_probability}"
        )
    return int(rng.geometric(success_probability)) - 1


__all__ = [
    "ChunkedUniforms",
    "RngLike",
    "ensure_rng",
    "generator_state",
    "restore_generator_state",
    "spawn_rngs",
    "RngFactory",
    "random_subset",
    "geometric_delay",
]

"""The injection-process interface.

An injection process is an iterator over slots: ``packets_for_slot(t)``
returns the packets injected in slot ``t`` (possibly empty). Processes
are deterministic functions of their seed, and slots must be queried in
increasing order (the engine does), though repeated queries for the
same slot are allowed and cached for the adversaries that precompute
windows.

Every process emits into a :class:`~repro.injection.store.PacketStore`
(its own by default, or a shared one passed at construction): the
built-in processes implement :meth:`indices_for_slot`, allocating
struct-of-arrays rows and returning store indices, and the
``packets_for_*`` methods wrap those indices as lazy
:class:`~repro.injection.store.PacketView` objects. The store index
*is* the packet id — allocation order matches the old per-process
``itertools.count`` stream exactly. The frame engine feeds index
arrays straight to a store-mode protocol and never materialises views;
object-mode callers see the same ``List[Packet]``-shaped API as before.

Subclasses outside this package may still override
``packets_for_slot`` directly (object mode only); the engine falls
back to object batches whenever protocol and injection do not share a
store.
"""

from __future__ import annotations

from abc import ABC
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.injection.store import PacketStore, PacketView


class InjectionProcess(ABC):
    """Produces the packets injected at each slot."""

    def __init__(self, store: Optional[PacketStore] = None):
        if self._is_legacy() and type(self).packets_for_slot is (
            InjectionProcess.packets_for_slot
        ):
            # Neither emission hook is overridden: fail at construction
            # (the old ABC's abstract packets_for_slot did the same).
            raise TypeError(
                f"{type(self).__name__} must implement indices_for_slot "
                "or packets_for_slot"
            )
        self._store = store if store is not None else PacketStore()

    @classmethod
    def _is_legacy(cls) -> bool:
        """Whether only ``packets_for_slot`` is overridden (object mode)."""
        return (
            cls.indices_for_slot is InjectionProcess.indices_for_slot
            and cls.indices_for_range is InjectionProcess.indices_for_range
        )

    @property
    def store(self) -> PacketStore:
        """The packet store this process allocates into."""
        return self._store

    def indices_for_slot(self, slot: int) -> Sequence[int]:
        """Store indices of the packets injected in slot ``slot``.

        Built-in processes implement this; legacy subclasses that only
        override :meth:`packets_for_slot` never reach it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement indices_for_slot"
        )

    def indices_for_range(self, start_slot: int, end_slot: int) -> np.ndarray:
        """Store indices injected in ``[start_slot, end_slot)`` as int64.

        The default iterates :meth:`indices_for_slot` over the slots and
        is the reference the built-in overrides are tested against:

        * :class:`~repro.injection.stochastic.StochasticInjection`
          samples an equivalent distribution in one shot (only the
          per-frame multiset matters to the protocol);
        * :class:`~repro.injection.markov.MarkovModulatedInjection`,
          the :class:`~repro.injection.adversarial.WindowAdversary`
          family and :class:`~repro.injection.markov.PoissonBatchInjection`
          emit exactly the per-slot packets, stamps and end state, with
          one allocation per range (Markov walks ON/OFF sojourns, the
          adversaries their window plans, Poisson keeps per-slot draws).
        """
        out: List[int] = []
        for slot in range(start_slot, end_slot):
            out.extend(self.indices_for_slot(slot))
        return np.asarray(out, dtype=np.int64)

    def packets_for_slot(self, slot: int) -> List[PacketView]:
        """Packets injected in slot ``slot`` (fresh list, caller owns it)."""
        return self._store.views(self.indices_for_slot(slot))

    def packets_for_range(self, start_slot: int, end_slot: int) -> List:
        """Packets injected in slots ``[start_slot, end_slot)``.

        Index-emitting processes materialise one batch of views; legacy
        subclasses that only override :meth:`packets_for_slot` get the
        old slot-iterating fallback.
        """
        if self._is_legacy():
            packets: List = []
            for slot in range(start_slot, end_slot):
                packets.extend(self.packets_for_slot(slot))
            return packets
        return self._store.views(self.indices_for_range(start_slot, end_slot))

    def _allocate(self, path, slot: int) -> int:
        """Allocate a packet with the next sequential id; returns its index.

        The built-in index-emitting processes use this in
        ``indices_for_slot``/``indices_for_range``.
        """
        return self._store.allocate(path, slot)

    def _new_packet(self, path, slot: int) -> PacketView:
        """Allocate a packet and return it as a Packet-compatible view.

        Kept for legacy subclasses that build ``packets_for_slot``
        batches with this helper — it must keep returning an object
        with the ``Packet`` surface, not a bare index.
        """
        return self._store.view(self._allocate(path, slot))

    def stream(self, horizon: int) -> Iterator[List[PacketView]]:
        """Iterate packet batches for slots ``0 .. horizon-1``."""
        for slot in range(horizon):
            yield self.packets_for_slot(slot)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable snapshot of the process's mutable state.

        The built-in processes override this (their state is RNG
        streams plus, for the adversaries, cached window plans). The
        base implementation refuses: a process without explicit
        checkpoint support cannot guarantee resume parity.
        """
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"{type(self).__name__} does not support checkpointing "
            "(no state_dict)"
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"{type(self).__name__} does not support checkpointing "
            "(no load_state_dict)"
        )


__all__ = ["InjectionProcess"]

"""The vectorized slot kernel shared by the static schedulers.

Every static scheduler in :mod:`repro.staticsched` runs the same hot
loop: decide which busy links transmit this slot, evaluate the
interference model, serve the FIFO heads of the successful links,
repeat. Historically each scheduler walked Python dicts per slot and
the model re-sliced ``W`` per call; :class:`SlotKernel` replaces that
with array state:

* ``busy`` — sorted int64 array of links with pending requests;
* ``depths`` — queue depths aligned with ``busy``;
* a :class:`~repro.interference.base.BatchSuccessEvaluator` obtained
  from the model once per run, which caches active-set submatrices and
  updates them incrementally as links drain.

Schedulers keep their per-link adaptive state (transmission
probabilities, idle streaks...) as arrays aligned with ``busy`` and
draw their Bernoulli coins in one batched ``Generator.random(size=k)``
call per slot. Because numpy generators fill batched draws from the
same stream as repeated scalar calls, a batched scheduler replays
bit-for-bit against its scalar-loop ancestor.

This per-slot kernel is the ``kernel`` run-loop backend; the fused
backend lives in :mod:`repro.staticsched.runloop`, which also owns
backend selection.

Reference mode
--------------
``successes()`` on the models remains the ground-truth semantics. The
:func:`scalar_reference` context manager forces every run started
inside it onto the scalar ``scalar`` backend (one ``successes()`` call
per slot, through this kernel) — it wins ties against any other
backend selection; the parity tests run each scheduler per backend
from one seed and require identical
:class:`~repro.staticsched.base.RunResult`\\ s.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.interference.base import InterferenceModel, ScalarBatchEvaluator
from repro.staticsched import runloop
from repro.staticsched.base import LazySlotHistory, LinkQueues


def scalar_reference():
    """Force runs created in this context onto the scalar success path.

    Used by verification: the vectorized evaluators and the fused
    backends must reproduce the reference run exactly (same RNG
    stream, same ``RunResult``). A scalar context wins ties against
    every other backend selection (see
    :func:`repro.staticsched.runloop.use_backend`).
    """
    return runloop.use_backend("scalar")


def scalar_forced() -> bool:
    """Whether runs are currently pinned to the scalar reference."""
    return runloop.scalar_forced()


class SlotKernel:
    """Array-first slot-loop state for one static-algorithm run.

    The kernel owns the coupling between the request FIFO queues, the
    interference model's batch evaluator, delivery bookkeeping, and
    optional history recording. Schedulers drive it with one
    :meth:`transmit` call per slot, passing a boolean mask over
    :attr:`busy`.

    Compaction contract: when a transmit empties some link's queue, the
    kernel shrinks ``busy``/``depths`` (and the evaluator's caches) and
    exposes the local keep mask as :attr:`last_keep` for exactly one
    call; schedulers apply their per-link state updates using the
    *pre-compaction* indexing of the returned success mask, then slice
    their arrays by ``last_keep``.
    """

    def __init__(
        self,
        model: InterferenceModel,
        queues: LinkQueues,
        delivered: List[int],
        history: Optional[LazySlotHistory],
    ):
        self._model = model
        self._queues = queues
        self._delivered = delivered
        self._history = history
        self.busy: np.ndarray = queues.busy_array()
        self.depths: np.ndarray = queues.depths_for(self.busy)
        if runloop.resolve_backend() == "scalar":
            self._evaluator = ScalarBatchEvaluator(model, self.busy)
        else:
            self._evaluator = model.batch_evaluator(self.busy)
        self.last_keep: Optional[np.ndarray] = None
        self._no_success = self._make_no_success()

    def _make_no_success(self) -> np.ndarray:
        # Reused all-False mask returned for idle slots, so the common
        # nobody-transmits case costs no allocation. Read-only so the
        # "treated as read-only by contract" rule is enforced, not
        # just documented: a consumer writing through it raises.
        mask = np.zeros(self.busy.size, dtype=bool)
        mask.setflags(write=False)
        return mask

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests not yet served."""
        return self._queues.pending

    @property
    def size(self) -> int:
        """Number of busy links."""
        return int(self.busy.size)

    # ------------------------------------------------------------------
    # The slot step
    # ------------------------------------------------------------------

    def transmit(self, transmit_local: np.ndarray) -> np.ndarray:
        """Run one slot with the given local transmit mask.

        Returns the local success mask in *pre-compaction* indexing and
        sets :attr:`last_keep` when links drained (``None`` otherwise).
        """
        self.last_keep = None
        if not transmit_local.any():
            # Idle slot: the model is not consulted (matching the
            # scalar loop, which skipped ``successes([])``).
            if self._history is not None:
                self._history.append_empty()
            return self._no_success
        success = self._evaluator.successes_local(transmit_local)
        if self._history is not None:
            # Record raw id arrays; SlotRecord tuples materialise
            # lazily on access (LazySlotHistory).
            self._history.append_ids(
                self.busy[transmit_local], self.busy[success]
            )
        if success.any():
            # busy is sorted, so heads pop in ascending link order —
            # the same delivery order as the scalar loop — and the
            # whole success set pops in one gather.
            self._delivered.extend(
                self._queues.pop_heads(self.busy[success]).tolist()
            )
            served_depths = self.depths[success] - 1
            self.depths[success] = served_depths
            if not served_depths.all():
                keep = self.depths > 0
                self.busy = self.busy[keep]
                self.depths = self.depths[keep]
                self._evaluator.drop(keep)
                self.last_keep = keep
                self._no_success = self._make_no_success()
        return success


def make_run_state(
    model: InterferenceModel,
    requests,
    record_history: bool,
) -> Tuple[SlotKernel, LinkQueues, List[int], Optional[LazySlotHistory]]:
    """Build the (kernel, queues, delivered, history) tuple for a run."""
    queues = LinkQueues(requests, model.num_links)
    delivered: List[int] = []
    history: Optional[LazySlotHistory] = (
        LazySlotHistory() if record_history else None
    )
    kernel = SlotKernel(model, queues, delivered, history)
    return kernel, queues, delivered, history


__all__ = [
    "SlotKernel",
    "make_run_state",
    "scalar_reference",
    "scalar_forced",
]

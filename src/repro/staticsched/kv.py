"""Acknowledgement-based distributed contention resolution.

Reference [33] of the paper (Kesselheim & Voecking, "Distributed
contention resolution in wireless networks", DISC 2010) schedules ``n``
requests in ``O(A-bar * log n)`` slots whp, where ``A-bar`` is the
maximum average affectance — the algorithm behind Corollary 13
(monotone sub-linear power assignments, ``O(log^2 m)``-competitive
after transformation).

Mechanism reproduced here (the DISC'10 core loop): every pending
request maintains a personal transmission probability, starting at a
common low value. In each slot it transmits with its current
probability; on a *successful* transmission it leaves the system, and
— the distinctive ingredient — each request adapts multiplicatively
based only on its own acknowledgement feedback: unsuccessful attempts
halve the probability (back-off), long quiet stretches double it up to
the cap. This needs no knowledge of the measure, only of ``n`` (for the
initial probability and the budget), matching the distributed,
ack-based feedback model the paper requires of transformable
algorithms (Section 8).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.interference.base import InterferenceModel
from repro.staticsched.base import RunResult, StaticAlgorithm
from repro.staticsched.kernel import make_run_state
from repro.staticsched.runloop import KvPolicy, resolve_backend, run_fused
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


class KvScheduler(StaticAlgorithm):
    """Ack-feedback contention resolution with multiplicative adaptation.

    Parameters
    ----------
    initial_probability:
        Starting per-request transmission probability (default 1/8).
    min_probability:
        Back-off floor.
    backoff:
        Multiplier applied after a failed attempt (default 1/2).
    recovery_slots:
        A request idle (not attempting) for this many consecutive slots
        doubles its probability, up to ``initial_probability``.
    budget_scale:
        Factor on the ``O(I log n)`` budget recommendation.
    """

    name = "kv"

    def __init__(
        self,
        initial_probability: float = 0.125,
        min_probability: float = 1e-4,
        backoff: float = 0.5,
        recovery_slots: int = 8,
        budget_scale: float = 24.0,
    ):
        if not 0 < initial_probability <= 1:
            raise SchedulingError(
                f"initial_probability must be in (0, 1], got {initial_probability}"
            )
        if not 0 < backoff < 1:
            raise SchedulingError(f"backoff must be in (0, 1), got {backoff}")
        self._p0 = initial_probability
        self._p_min = check_positive("min_probability", min_probability)
        self._backoff = backoff
        self._recovery_slots = max(1, int(recovery_slots))
        self._budget_scale = check_positive("budget_scale", budget_scale)

    def state_dict(self):
        return {
            "name": self.name,
            "initial_probability": self._p0,
            "min_probability": self._p_min,
            "backoff": self._backoff,
            "recovery_slots": self._recovery_slots,
            "budget_scale": self._budget_scale,
        }

    def budget_for(self, measure: float, n: int) -> int:
        """``O(I log n)`` with the adaptation's slack constant."""
        measure = max(measure, 1.0)
        return max(
            1, math.ceil(self._budget_scale * measure * math.log(n + 2))
        )

    def fused_policy(self) -> KvPolicy:
        """A fresh fused-loop policy mirroring :meth:`run`'s dispatch
        (the batched fleet kernel builds its per-network tasks here)."""
        return KvPolicy(
            self._p0, self._p_min, self._backoff, self._recovery_slots
        )

    def run(
        self,
        model: InterferenceModel,
        requests: Sequence[int],
        budget: int,
        rng: RngLike = None,
        record_history: bool = False,
    ) -> RunResult:
        if budget < 0:
            raise SchedulingError(f"budget must be >= 0, got {budget}")
        gen = ensure_rng(rng)
        if resolve_backend() == "numpy":
            return run_fused(
                self.fused_policy(),
                model, requests, budget, gen, record_history,
            )
        kernel, queues, delivered, history = make_run_state(
            model, requests, record_history
        )

        # Per-link adaptive state (the head request's state; FIFO order
        # means each request inherits the link's learned probability,
        # which only helps convergence). Arrays aligned with kernel.busy.
        probability = np.full(kernel.size, self._p0)
        idle_streak = np.zeros(kernel.size, dtype=np.int64)

        slots = 0
        while slots < budget and kernel.pending:
            # One batched draw covers every busy link in id order — the
            # same stream as one scalar draw per link.
            attempt = gen.random(kernel.size) < probability
            idle_streak += 1
            idle_streak[attempt] = 0
            success = kernel.transmit(attempt)
            probability[success] = self._p0
            # successes are a subset of attempts, so XOR == attempt & ~success
            rebuffed = attempt ^ success
            probability[rebuffed] = np.maximum(
                self._p_min, probability[rebuffed] * self._backoff
            )
            recovered = idle_streak >= self._recovery_slots
            probability[recovered] = np.minimum(
                self._p0, probability[recovered] * 2.0
            )
            idle_streak[recovered] = 0
            if kernel.last_keep is not None:
                probability = probability[kernel.last_keep]
                idle_streak = idle_streak[kernel.last_keep]
            slots += 1
        return self._finalise(queues, delivered, slots, history)


__all__ = ["KvScheduler"]

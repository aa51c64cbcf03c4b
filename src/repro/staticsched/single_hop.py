"""The trivial packet-routing scheduler.

In a packet-routing network (``W`` = identity,
:class:`~repro.interference.packet_routing.PacketRoutingModel`) links
never interfere, so the obvious schedule is optimal: every slot, every
link with a backlog forwards one packet. The schedule length equals the
congestion — which *is* the interference measure under the identity
matrix — giving the exact bound ``f = 1``, ``g = 0``.

Plugged into the dynamic transformation this recovers the classical
adversarial-queueing guarantee (stable for every ``lambda < 1``), the
paper's Section-7 sanity check that the framework collapses to known
results in the degenerate model.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.interference.base import InterferenceModel
from repro.staticsched.base import LengthBound, RunResult, StaticAlgorithm
from repro.staticsched.kernel import make_run_state
from repro.staticsched.runloop import (
    SingleHopPolicy,
    resolve_backend,
    run_fused,
)
from repro.utils.rng import RngLike, ensure_rng


class SingleHopScheduler(StaticAlgorithm):
    """Forward one packet per busy link per slot; exact length = congestion."""

    name = "single-hop"

    def budget_for(self, measure: float, n: int) -> int:
        """The congestion itself (measure rounded up), at least 1."""
        return max(1, math.ceil(measure))

    def network_bound(self, m: int) -> LengthBound:
        """Exact: ``f = 1``, ``g = 0`` (represented with a 1-slot floor)."""
        return LengthBound(
            multiplicative=lambda m_: 1.0,
            additive=lambda m_, n: 1.0,
            description="I exact [trivial single-hop]",
        )

    def fused_policy(self) -> SingleHopPolicy:
        """A fresh fused-loop policy mirroring :meth:`run`'s dispatch
        (the batched fleet kernel builds its per-network tasks here)."""
        return SingleHopPolicy()

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
        if resolve_backend() == "numpy":
            return run_fused(
                self.fused_policy(),
                model, requests, budget, ensure_rng(rng), record_history,
            )
        kernel, queues, delivered, history = make_run_state(
            model, requests, record_history
        )
        slots = 0
        while slots < budget and kernel.pending:
            # Every busy link forwards: the all-transmit mask hits the
            # evaluators' incremental row-sum fast path.
            kernel.transmit(np.ones(kernel.size, dtype=bool))
            slots += 1
        return self._finalise(queues, delivered, slots, history)


__all__ = ["SingleHopScheduler"]

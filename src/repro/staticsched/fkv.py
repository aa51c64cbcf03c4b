"""Phased decay scheduler in the style of Fanghaenel-Kesselheim-Voecking.

Reference [21] of the paper ("Improved algorithms for latency
minimization in wireless networks", TCS 2011) achieves schedule length
``O(I + log^2 n)`` with high probability for linear power assignments —
the bound behind Corollary 12.

The mechanism reproduced here: proceed in *phases*. In phase ``k`` the
measure of the still-pending requests has (whp) dropped to about
``I / 2^k``, so transmission probability ``min(1/4, 1/(4 * I/2^k))``
is safe, and a phase of length ``c * max(I/2^k, log n)`` halves the
measure again. Summing the geometric series gives ``O(I)`` slots for
the halving phases plus ``O(log n)`` phases of floor length
``O(log n)`` — in total ``O(I + log^2 n)``.

Compared to :class:`~repro.staticsched.decay.DecayScheduler` the gain
is exactly the removal of the ``log n`` *multiplicative* factor; the E1
benchmark shows the two scaling regimes side by side.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import SchedulingError
from repro.interference.base import InterferenceModel
from repro.staticsched.base import RunResult, StaticAlgorithm
from repro.staticsched.kernel import make_run_state
from repro.staticsched.runloop import FkvPolicy, resolve_backend, run_fused
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


class FkvScheduler(StaticAlgorithm):
    """Phased random transmission: ``O(I + log^2 n)`` whp.

    Parameters
    ----------
    probability_scale:
        Constant ``c`` in the phase-``k`` probability ``1/(c * I_k)``.
    phase_scale:
        Constant factor on each phase's length.
    """

    name = "fkv"

    def __init__(self, probability_scale: float = 4.0, phase_scale: float = 6.0):
        self._probability_scale = check_positive(
            "probability_scale", probability_scale
        )
        self._phase_scale = check_positive("phase_scale", phase_scale)

    def state_dict(self):
        return {
            "name": self.name,
            "probability_scale": self._probability_scale,
            "phase_scale": self._phase_scale,
        }

    def budget_for(self, measure: float, n: int) -> int:
        """``O(I + log^2 n)``: the summed phase lengths."""
        measure = max(measure, 1.0)
        log_n = math.log(n + 2)
        halvings = max(1, math.ceil(math.log2(measure) + 1))
        geometric = 2.0 * self._phase_scale * self._probability_scale * measure
        floor_phases = (
            (halvings + math.ceil(log_n))
            * self._phase_scale
            * self._probability_scale
            * log_n
        )
        return max(1, math.ceil(geometric + floor_phases))

    def fused_policy(self) -> FkvPolicy:
        """A fresh fused-loop policy mirroring :meth:`run`'s dispatch
        (the batched fleet kernel builds its per-network tasks here)."""
        return FkvPolicy(self._probability_scale, self._phase_scale)

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

        n = max(1, len(list(requests)))
        log_n = math.log(n + 2)
        measure_estimate = max(model.interference_measure(list(requests)), 1.0)

        slots = 0
        phase = 0
        while slots < budget and kernel.pending:
            phase_measure = max(measure_estimate / 2.0**phase, 1.0)
            probability = min(0.25, 1.0 / (self._probability_scale * phase_measure))
            phase_length = max(
                1,
                math.ceil(
                    self._phase_scale
                    * self._probability_scale
                    * max(phase_measure, log_n)
                ),
            )
            complement = 1.0 - probability
            for _ in range(phase_length):
                if slots >= budget or not kernel.pending:
                    break
                link_probability = 1.0 - complement ** kernel.depths
                wants = gen.random(kernel.size) < link_probability
                kernel.transmit(wants)
                slots += 1
            phase += 1
        return self._finalise(queues, delivered, slots, history)


__all__ = ["FkvScheduler"]

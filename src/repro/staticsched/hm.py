"""Contention-adaptive scheduling in the Halldórsson–Mitra direction.

The paper remarks (Section 6.1) that reference [26] (Halldórsson &
Mitra, "Nearly optimal bounds for distributed wireless scheduling in
the SINR model", ICALP 2011) improves the analysis of the
Kesselheim–Vöcking algorithm from ``O(A-bar log n)`` to a *nearly
optimal* bound with a constant multiplicative factor — and leaves
fitting that analysis into the dynamic framework as an open problem.

:class:`HmScheduler` explores that open problem empirically. It is an
HM-*style* contention-adaptive scheduler, not a line-by-line
transcription of the ICALP'11 algorithm: in each slot every pending
link transmits its head request with probability

    p_e = min(1, chi / I_busy(e)),

where ``I_busy(e) = (W . B)(e)`` for the 0/1 indicator vector ``B`` of
links with a non-empty queue. The indicator (not the queue-length
vector) is the right residual: a link transmits at most one packet per
slot no matter how deep its queue, so only *which* links are busy
creates collisions. As links drain, probabilities adapt upward —
unlike the decay scheduler's fixed ``1/(4 I)`` — so the expected
measure cleared per slot stays a constant fraction and the schedule
length is ``O(I) + polylog`` instead of ``O(I log n)``.

Idealisation (documented, deliberate): the scheduler computes
``I_rem(e)`` from the global residual request vector. HM obtain an
equivalent estimate distributedly from acknowledgement feedback; we
grant it directly so the experiment isolates the *scheduling* question
(is the additive-polylog schedule length achievable, and what does the
transformation make of it?) from the estimation machinery. The X5
benchmark validates the resulting ``f(m) = O(1)`` length bound
empirically before the dynamic protocol relies on it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.interference.base import InterferenceModel
from repro.staticsched.base import LengthBound, RunResult, StaticAlgorithm
from repro.staticsched.kernel import make_run_state
from repro.staticsched.runloop import HmPolicy, resolve_backend, run_fused
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive


class HmScheduler(StaticAlgorithm):
    """Adaptive ``chi / I_rem`` random transmission (HM-style).

    Parameters
    ----------
    chi:
        The per-slot aggressiveness: transmission probability is
        ``min(1, chi / I_rem(e))``. The default 1/4 mirrors the decay
        scheduler's constant so the two are directly comparable.
    budget_scale:
        Factor on the recommended budget (head-room for the
        high-probability guarantee).
    polylog_scale:
        Factor on the additive ``log^2(m+2) * log(n+2)`` straggler term
        of the budget.
    """

    name = "hm"

    def __init__(
        self,
        chi: float = 0.25,
        budget_scale: float = 3.0,
        polylog_scale: float = 2.0,
    ):
        self._chi = check_positive("chi", chi)
        self._budget_scale = check_positive("budget_scale", budget_scale)
        self._polylog_scale = check_positive("polylog_scale", polylog_scale)

    def state_dict(self):
        return {
            "name": self.name,
            "chi": self._chi,
            "budget_scale": self._budget_scale,
            "polylog_scale": self._polylog_scale,
        }

    def budget_for(self, measure: float, n: int) -> int:
        """``O(I) + O(log^2 m log n)`` — with ``m`` unknown, uses ``n``.

        ``budget_for`` only sees the instance, so the polylog term uses
        ``n`` as the (over-)estimate of ``m``; :meth:`network_bound`
        exposes the sharper network-level form the protocol sizes
        frames with.
        """
        measure = max(measure, 1.0)
        polylog = (
            self._polylog_scale
            * math.log(n + 2) ** 2
            * math.log(n + 2)
        )
        return max(
            1,
            math.ceil(
                self._budget_scale * measure / self._chi + polylog
            ),
        )

    def network_bound(self, m: int) -> LengthBound:
        """Constant multiplicative factor, polylog additive term."""
        scale = self._budget_scale / self._chi

        def additive(m_: int, n: int) -> float:
            return (
                self._polylog_scale
                * math.log(m_ + 2) ** 2
                * math.log(n + 2)
            )

        return LengthBound(
            multiplicative=lambda m_: scale,
            additive=additive,
            description=(
                f"{scale:.1f} I + {self._polylog_scale:.1f} "
                "log^2(m) log(n) [HM-style adaptive contention]"
            ),
        )

    def fused_policy(self) -> HmPolicy:
        """A fresh fused-loop policy mirroring :meth:`run`'s dispatch
        (the batched fleet kernel builds its per-network tasks here)."""
        return HmPolicy(self._chi)

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

        # I_busy(e) = (W . B)(e) restricted to busy links is the row sum
        # of the busy-set submatrix. Cache it once and update it
        # incrementally as links drain — O(busy) per slot instead of a
        # fresh O(busy * m) matvec.
        sub = model.weight_matrix()[np.ix_(kernel.busy, kernel.busy)]
        contention = sub.sum(axis=1)

        slots = 0
        while slots < budget and kernel.pending:
            p = np.minimum(1.0, self._chi / np.maximum(contention, 1.0))
            attempt = gen.random(kernel.size) < p
            kernel.transmit(attempt)
            if kernel.last_keep is not None:
                keep = kernel.last_keep
                gone = ~keep
                contention = (
                    contention[keep] - sub[np.ix_(keep, gone)].sum(axis=1)
                )
                sub = sub[np.ix_(keep, keep)]
            slots += 1
        return self._finalise(queues, delivered, slots, history)


__all__ = ["HmScheduler"]

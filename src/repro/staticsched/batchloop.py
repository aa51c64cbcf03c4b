"""Batched fused run loop: many small networks in one slot engine.

:func:`~repro.staticsched.runloop.run_fused` advances *one* network's
slot loop; its per-slot cost on a small network (a dozen links) is
dominated by fixed numpy-call overhead, not arithmetic. A fleet of N
such networks pays that overhead N times per slot — and BENCH_p5
showed process-per-network cannot amortise it (each network is too
cheap to ship to a worker, and the bench container has one CPU).

This module runs N independent fused tasks through a shared *wave*
engine instead. The key observation is that for every fused policy the
per-link transmission thresholds are **frozen between events** (slots
in which some link attempts): decay/HM thresholds change only when a
queue drains, FKV's only at phase boundaries, KV's only on attempts or
idle-recovery. So a window of upcoming slots can be *scanned* with one
vectorised comparison over a padded ``(N, window, L_max)`` coin tensor
— ``coin < threshold`` is elementwise, so padding lanes (coins of 2.0)
can never fire and cross-network stacking cannot perturb any result —
and only the first event slot per network is stepped through the exact
per-slot engine. Skipped slots are retired in O(1): their coins were
drawn and consumed (the serial loop consumes ``k`` coins per slot no
matter what), their attempt sets are empty by construction, and the
policy bookkeeping they would have done (KV idle streaks, FKV phase
countdown) is applied in closed form.

Bit-exactness contract: every network's :class:`RunResult` — delivered
order, remaining order, slots used — *and* its generator's final state
are identical to an unbatched serial run. The per-slot body below is a
line-for-line copy of ``run_fused``'s (kept separate so the serial hot
loop stays untouched); coins come from the same
:class:`ChunkedUniforms` stream discipline, whose finalize() rewind
makes the generator's end state depend only on the number of values
handed out, not on chunk boundaries; and the scan horizons are chosen
so no policy recurrence can fire inside a skipped window (see
:func:`_scan_state`).

The driver consumes *step generators* (see :mod:`repro.core.steps`):
each network is a generator yielding
:class:`~repro.core.steps.AlgorithmCall` items, so one engine advances
whole dynamic-protocol simulations frame by frame, interleaving every
network's static-algorithm sub-runs inside shared waves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.staticsched.base import LinkQueues, RunResult
from repro.staticsched.runloop import (
    DecayPolicy,
    FkvPolicy,
    FusedPolicy,
    HmPolicy,
    KvPolicy,
    _make_fused_eval,
)
from repro.utils.rng import ChunkedUniforms

#: Maximum slots scanned per wave. The batched tasks draw their coins
#: in chunks of exactly this many slots (legal at any size: the
#: ChunkedUniforms discipline hands out the same stream values under
#: any chunking, and its finalize() rewind leaves the generator's end
#: state dependent only on the handed-out count) so a refill always
#: yields a full window and a wave never needs a mid-window refill.
#: Larger windows amortise the per-wave Python over more skipped
#: slots; 256 keeps the padded tensors small while making chunk
#: boundaries 4x rarer than the serial loop's 64-slot chunks.
WINDOW = 256

#: Horizon sentinel for policies whose thresholds never drift between
#: events (decay, HM).
_UNLIMITED = 1 << 30


class FusedTask:
    """One network's fused run, advanced slot by slot or in waves.

    The constructor replicates ``run_fused``'s setup exactly;
    :meth:`_step` replicates its slot body; :meth:`finish` replicates
    its teardown (including the ChunkedUniforms rewind). History
    recording is unsupported — the batch layer routes
    ``record_history`` runs to the serial path.
    """

    __slots__ = (
        "policy", "budget", "order", "starts", "busy", "depths",
        "head_ptr", "pending", "evaluator", "uses_rng", "chunk",
        "ubuf", "ucursor", "delivered_parts", "slots", "row",
        "thr_stale", "_no_ok",
    )

    def __init__(self, policy: FusedPolicy, model, requests, budget: int,
                 gen: np.random.Generator):
        # The schedulers validate before dispatching to run_fused; the
        # batched path intercepts earlier, so validate here.
        if budget < 0:
            raise SchedulingError(f"budget must be >= 0, got {budget}")
        self.policy = policy
        self.budget = budget
        queues = LinkQueues(requests, model.num_links)
        self.order, self.starts = queues.csr_arrays()
        self.busy = queues.busy_array()
        self.depths = queues.depths_for(self.busy)
        self.head_ptr = self.starts[self.busy].copy()
        self.pending = queues.pending
        policy.bind(model, requests, self.busy, self.depths)
        self.evaluator = _make_fused_eval(model, self.busy)
        self.uses_rng = policy.uses_rng
        self.chunk = (
            ChunkedUniforms(gen, chunk_slots=WINDOW)
            if self.uses_rng else None
        )
        self.ubuf = self.chunk._buf if self.chunk is not None else None
        self.ucursor = 0
        self.delivered_parts: List[np.ndarray] = []
        self.slots = 0
        # Wave-engine bookkeeping: the driver assigns each parked task
        # a row in its padded tensors; the cached threshold row must be
        # rewritten after any stepped slot (policy state may change).
        self.row = -1
        self.thr_stale = True
        self._no_ok = np.empty(0, dtype=bool)

    @property
    def is_active(self) -> bool:
        return self.slots < self.budget and self.pending > 0

    # -- coins ---------------------------------------------------------

    def coins_block(self, w: int) -> Tuple[int, np.ndarray]:
        """Up to ``w`` slots of coins as an unconsumed view.

        Returns ``(w_eff, view)`` where ``w_eff <= w`` is capped to the
        full slots the buffer holds. Refills only when less than one
        slot remains — the same trigger condition as the serial take —
        which preserves ChunkedUniforms' finalize invariant: the first
        consumption after a refill (at least one slot, ``k`` coins)
        always exceeds the sub-``k`` leftover, so the rewind replays a
        positive count and the generator's end state is exactly
        "handed-out values" deep, as in a serial run.
        """
        k = self.busy.size
        avail = (self.ubuf.size - self.ucursor) // k
        if avail < 1:
            self.chunk._cursor = self.ucursor
            self.chunk.refill(k)
            self.ubuf = self.chunk._buf
            self.ucursor = 0
            avail = self.ubuf.size // k
        w = min(w, avail)
        return w, self.ubuf[self.ucursor:self.ucursor + w * k]

    # -- advancing -----------------------------------------------------

    def skip(self, s: int) -> None:
        """Retire ``s`` event-free slots in O(1).

        Consumes their coins and applies the closed-form policy
        bookkeeping; safe only within a :func:`_scan_state` horizon
        (no attempts, hence no queue/evaluator/probability changes,
        and no KV recovery or FKV phase boundary inside the window).
        """
        n = s * self.busy.size
        self.ucursor += n
        self.chunk._consumed += n
        policy = self.policy
        kind = type(policy)
        if kind is KvPolicy:
            policy.idle += s
        elif kind is FkvPolicy:
            policy.phase_left -= s
        self.slots += s

    def step_event(self) -> None:
        """Run one slot through the exact engine (coins pre-scanned)."""
        k = self.busy.size
        u = self.ubuf[self.ucursor:self.ucursor + k]
        self.ucursor += k
        self.chunk._consumed += k
        self._step(u)

    def step_serial(self) -> None:
        """One slot through the exact engine, drawing its own coins."""
        if self.uses_rng:
            k = self.busy.size
            nxt = self.ucursor + k
            if nxt > self.ubuf.size:
                self.chunk._cursor = self.ucursor
                u = self.chunk.take(k)
                self.ubuf = self.chunk._buf
                self.ucursor = self.chunk._cursor
            else:
                u = self.ubuf[self.ucursor:nxt]
                self.ucursor = nxt
                self.chunk._consumed += k
            self._step(u)
        else:
            self._step(None)

    def _step(self, u: Optional[np.ndarray]) -> None:
        # Line-for-line the run_fused slot body (history-free).
        policy = self.policy
        attempt, att_idx = policy.attempt(u, self.depths)
        keep = None
        if att_idx.size:
            ok = self.evaluator.evaluate(attempt, att_idx)
            if ok.any():
                s_idx = att_idx[ok]
                hp = self.head_ptr.take(s_idx)
                heads = self.order.take(hp)
                self.delivered_parts.append(heads)
                self.head_ptr[s_idx] = hp + 1
                served = self.depths.take(s_idx) - 1
                self.depths[s_idx] = served
                self.pending -= heads.size
                if not served.all():
                    keep = self.depths > 0
        else:
            ok = self._no_ok
        policy.update(att_idx, ok)
        if keep is not None:
            self.busy = self.busy[keep]
            self.depths = self.depths[keep]
            self.head_ptr = self.head_ptr[keep]
            self.evaluator.drop(keep)
            policy.compact(keep)
        self.slots += 1
        self.thr_stale = True

    def finish(self) -> RunResult:
        """Teardown: rewind coin overdraw, assemble the RunResult."""
        if self.chunk is not None:
            self.chunk._cursor = self.ucursor
            self.chunk.finalize()
            self.ubuf = self.chunk._buf
            self.ucursor = 0
        if self.delivered_parts:
            delivered = np.concatenate(self.delivered_parts).tolist()
        else:
            delivered = []
        remaining: List[int] = []
        for i in range(self.busy.size):
            remaining.extend(
                self.order[self.head_ptr[i]:self.starts[self.busy[i] + 1]]
                .tolist()
            )
        return RunResult(
            delivered=delivered,
            remaining=remaining,
            slots_used=self.slots,
            history=None,
        )


def _scan_state(policy: FusedPolicy, depths: np.ndarray):
    """``(thresholds, horizon, changed)`` for scanning at frozen state.

    ``thresholds`` is the per-link transmission threshold array the
    next ``horizon`` slots would all use (None: the policy cannot be
    scanned — step it per slot), and ``changed`` reports whether this
    call recomputed them (the driver caches threshold rows and only
    rewrites one when it changed or its task stepped a slot).
    Horizons guarantee that *skipped*
    (attempt-free) slots inside the window are complete no-ops for the
    policy beyond the closed-form bookkeeping in :meth:`FusedTask.skip`:

    * KV: attempt-free slots only increment idle streaks, but idle
      recovery fires in ``update`` once a streak reaches
      ``recovery_slots``, doubling probabilities — so at most
      ``recovery_slots - 1 - max(idle)`` slots can pass without any
      streak reaching the threshold. The event slot itself runs the
      real update, which applies any recovery exactly.
    * FKV: thresholds change only at phase boundaries; after advancing
      a just-expired phase (exactly what the serial attempt would do on
      its next slot), ``phase_left`` slots remain in the phase.
    * decay/HM: thresholds depend only on queue depths / the busy-set
      contention, which only change on successful deliveries — and a
      skipped slot has no attempts at all. Unlimited horizon.
    * single-hop (and unknown policies): no coins / no frozen
      threshold — per-slot path.

    Threshold refreshes write through the policy's own caches with the
    policy's own ufunc sequence (and clear its dirty flags), so the
    event slot's real ``attempt`` reuses bit-identical values exactly
    like a serial slot following a cached refresh.
    """
    kind = type(policy)
    if kind is KvPolicy:
        # KV's probability array is updated in place by events, which
        # already mark the task's cached row stale — never "changed"
        # from the scan's point of view.
        horizon = policy.recovery_slots - 1 - int(policy.idle.max())
        return policy.probability, horizon, False
    if kind is DecayPolicy:
        lp = policy._lp[:policy._size]
        changed = policy._dirty
        if changed:
            np.power(policy.complement, depths, out=lp)
            np.subtract(1.0, lp, out=lp)
            policy._dirty = False
        return lp, _UNLIMITED, changed
    if kind is FkvPolicy:
        changed = policy.phase_left == 0
        if changed:
            policy._advance_phase()
        lp = policy._lp[:policy._size]
        if policy._dirty:
            changed = True
            np.power(policy.complement, depths, out=lp)
            np.subtract(1.0, lp, out=lp)
            policy._dirty = False
        return lp, policy.phase_left, changed
    if kind is HmPolicy:
        changed = policy._p is None
        if changed:
            policy._p = np.minimum(
                1.0, policy.chi / np.maximum(policy.contention, 1.0)
            )
        return policy._p, _UNLIMITED, changed
    return None, 0, False


class _StreamDriver:
    """Advance N step generators, pooling their fused tasks in waves.

    The driver owns two padded matrices reused across waves, one
    persistent row per parked task:

    * ``_limits (rows, WINDOW * lanes)`` — each network's per-link
      thresholds tiled across the scan window, so a window of coins
      compares against it with a single flat elementwise ``<``. Rows
      are cached: rewritten only when the task stepped a slot or the
      policy reports recomputed thresholds, so skip-only waves touch
      no threshold data.
    * ``_hits`` — boolean scratch of the same shape for the compare
      output.

    Coins are never copied: each task's compare runs directly on the
    unconsumed view of its own chunk buffer, sliced to exactly the
    ``w * k`` coins the serial loop would consume next (the active
    mask — pad lanes beyond a network's live links are simply never
    part of the slice). The comparison is elementwise, so pooling
    networks in one engine cannot perturb any network's outcome.
    """

    def __init__(self, streams):
        self.streams = list(streams)
        self.results: List = [None] * len(self.streams)
        self.tasks: Dict[int, FusedTask] = {}
        self._free_rows: List[int] = []
        self._rows_cap = 0
        self._lanes_cap = 0
        self._limits: Optional[np.ndarray] = None
        self._hits: Optional[np.ndarray] = None
        self._order: List[Tuple[int, FusedTask]] = []
        self._order_stale = True

    def _park(self, i: int, task: FusedTask) -> None:
        """Give ``task`` a matrix row and add it to the wave pool."""
        task.row = (
            self._free_rows.pop() if self._free_rows
            else len(self.tasks) + len(self._free_rows)
        )
        self.tasks[i] = task
        self._order_stale = True
        k = task.busy.size
        if task.row >= self._rows_cap or k > self._lanes_cap:
            self._grow(task.row + 1, k)

    def _grow(self, rows: int, lanes: int) -> None:
        self._rows_cap = max(self._rows_cap, rows, len(self.streams))
        self._lanes_cap = max(self._lanes_cap * 2, lanes, 8)
        shape = (self._rows_cap, WINDOW * self._lanes_cap)
        self._limits = np.empty(shape)
        self._hits = np.empty(shape, dtype=bool)
        for task in self.tasks.values():
            task.thr_stale = True

    def prime(self, i: int) -> None:
        self._drive(i, None, start=True)

    def retire(self, i: int) -> None:
        task = self.tasks.pop(i)
        self._order_stale = True
        self._free_rows.append(task.row)
        self._drive(i, task.finish())

    def _drive(self, i: int, value, start: bool = False) -> None:
        """Push a result into stream ``i``; park its next fused task.

        Calls the stream cannot batch (no fused policy, or history
        recording) are executed synchronously in place, as are tasks
        that are born finished (zero budget / zero pending) — the loop
        only parks when there is real slot work to pool.
        """
        stream = self.streams[i]
        try:
            call = next(stream) if start else stream.send(value)
            while True:
                fused = getattr(call.algorithm, "fused_policy", None)
                if fused is None or call.record_history:
                    call = stream.send(call.execute())
                    continue
                task = FusedTask(
                    fused(), call.model, call.requests, call.budget,
                    call.rng,
                )
                if task.is_active:
                    self._park(i, task)
                    return
                call = stream.send(task.finish())
        except StopIteration as stop:
            self.results[i] = stop.value

    def run(self) -> List:
        for i in range(len(self.streams)):
            self.prime(i)
        while self.tasks:
            self._wave()
        return self.results

    def _wave(self) -> None:
        # Iteration order is sorted for determinism of any shared
        # structures (each network's own stream is deterministic
        # regardless — tasks never share state). A retire below can
        # park a replacement task (possibly growing the matrices); the
        # buffers are re-read per task, and _grow marks every cached
        # row stale, so mid-wave growth stays consistent.
        if self._order_stale:
            self._order = sorted(self.tasks.items())
            self._order_stale = False
        for i, task in self._order:
            if not task.uses_rng:
                # Coin-free tasks need no scanning and cannot perturb
                # anyone (no stream): run them straight to completion.
                while task.is_active:
                    task.step_serial()
                self.retire(i)
                continue
            thresholds, horizon, changed = _scan_state(
                task.policy, task.depths
            )
            w = task.budget - task.slots
            if horizon < w:
                w = horizon
            if thresholds is None or w < 1:
                task.step_serial()
                if not task.is_active:
                    self.retire(i)
                continue
            if w > WINDOW:
                w = WINDOW
            w, block = task.coins_block(w)
            k = task.busy.size
            row = task.row
            n = w * k
            if changed or task.thr_stale:
                # Retile this network's per-link thresholds across the
                # window (one broadcast write; lanes beyond w * k are
                # never read, so a shrunken busy set needs no re-pad).
                self._limits[row, :WINDOW * k].reshape(
                    WINDOW, k
                )[:] = thresholds
                task.thr_stale = False
            hits = np.less(
                block, self._limits[row, :n], out=self._hits[row, :n]
            )
            first = int(hits.argmax())
            if hits[first]:
                offset = first // k
                if offset:
                    task.skip(offset)
                task.step_event()
            else:
                task.skip(w)
            if not task.is_active:
                self.retire(i)


def run_batched_streams(streams) -> List:
    """Drive step generators to completion through the wave engine.

    Each stream yields :class:`~repro.core.steps.AlgorithmCall` items
    and receives each call's :class:`RunResult` back; its return value
    becomes the corresponding entry of the returned list. Every
    result — and every stream's RNG end state — is bit-identical to
    driving that stream alone with
    :func:`~repro.core.steps.drive_steps`.
    """
    return _StreamDriver(streams).run()


__all__ = [
    "FusedTask",
    "WINDOW",
    "run_batched_streams",
]

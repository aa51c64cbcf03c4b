"""Pluggable run-loop backends for the static slot loop.

The P1 slot kernel (:mod:`repro.staticsched.kernel`) vectorised the
per-slot work, but left a fixed floor of ~40 numpy dispatches per slot
plus per-slot Python bookkeeping (one ``Generator.random`` call per
slot, eager ``SlotRecord`` tuples, validated ``pop_heads``). This
module turns the slot loop into a *backend* choice:

``kernel``
    The P1 path: one :class:`~repro.staticsched.kernel.SlotKernel`
    step per slot with the model's cached batch evaluator. Kept as
    the benchmark baseline and as the fallback semantics.
``scalar``
    The kernel path pinned to one scalar ``successes()`` call per
    slot — the ground-truth reference every other backend must replay
    bit-for-bit. ``kernel.scalar_reference()`` forces this backend and
    *wins ties* against any other selection, so verification code can
    always trust it.
``numpy``
    The fused pure-numpy backend (:func:`run_fused`): Bernoulli coins
    pre-drawn in ~64-slot chunks from the same PCG64 stream
    (bit-identical to per-slot draws, with the generator rewound to
    the exact per-slot position at run end), sparse attempter-set
    bookkeeping (full-length work only where the busy set genuinely
    changes), head pops straight off the ``LinkQueues`` CSR arrays,
    lazy array-backed history, and inline evaluators for the
    affectance and conflict models.
``auto``, ``numba``
    Aliases for ``numpy``, kept so existing spec documents and
    ``--backend numba`` still load. ``auto`` is the default.

Every backend consumes the caller's generator stream exactly like the
scalar loop (one uniform per busy link per slot, none on idle
schedulers), so a run replays identically across backends from one
seed — ``tests/test_kernel_parity.py`` pins ``RunResult`` equality for
every backend × scheduler × model combination.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.interference.base import InterferenceModel
from repro.interference.conflict import ConflictGraphModel
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.staticsched.base import LazySlotHistory, LinkQueues, RunResult

#: User-facing backend names (the CLI's ``--backend`` choices).
BACKENDS = ("auto", "numpy", "numba", "scalar")
#: All accepted names; ``kernel`` (the P1 per-slot path) is kept for
#: benchmarks and parity tests but is not a CLI choice.
_ALL_BACKENDS = BACKENDS + ("kernel",)

_default_backend = "auto"
#: Stack of nested ``use_backend`` overrides; the innermost wins...
_override_stack: List[str] = []
#: ...except ``scalar``, which is sticky: any enclosing scalar request
#: (``scalar_reference()`` included) pins the resolution to scalar.
_scalar_depth = 0


def numba_available() -> bool:
    """Always False: no compiled backend exists (``numba`` is an alias)."""
    return False


def _check_backend(name: str) -> str:
    if name not in _ALL_BACKENDS:
        raise ConfigurationError(
            f"unknown run-loop backend '{name}'; choose from "
            f"{', '.join(_ALL_BACKENDS)}"
        )
    return name


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (``auto`` on startup)."""
    global _default_backend
    _default_backend = _check_backend(name)


def default_backend() -> str:
    """The process-wide default backend name (possibly ``auto``)."""
    return _default_backend


@contextmanager
def use_backend(name: str):
    """Run the enclosed code with ``name`` as the selected backend.

    Nested uses stack (innermost wins), with one exception: a
    ``scalar`` selection anywhere on the stack pins the resolution to
    the scalar reference — verification contexts must not be
    overridden from below.
    """
    global _scalar_depth
    _check_backend(name)
    _override_stack.append(name)
    if name == "scalar":
        _scalar_depth += 1
    try:
        yield
    finally:
        _override_stack.pop()
        if name == "scalar":
            _scalar_depth -= 1


def scalar_forced() -> bool:
    """Whether a scalar-reference context is active (wins all ties)."""
    return _scalar_depth > 0


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete backend.

    Resolution order: an active scalar-reference context beats
    everything; then ``name`` if given; then the innermost
    ``use_backend`` override; then the process default. ``auto`` and
    ``numba`` are aliases for ``numpy``.
    """
    if _scalar_depth > 0:
        return "scalar"
    if name is None:
        name = _override_stack[-1] if _override_stack else _default_backend
    else:
        _check_backend(name)
    if name in ("auto", "numba"):
        return "numpy"
    return name


def available_backends() -> Tuple[str, ...]:
    """The concrete backends runnable in this process."""
    return ("scalar", "kernel", "numpy")


# ----------------------------------------------------------------------
# Chunked uniform draws
# ----------------------------------------------------------------------


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

    def finalize(self) -> None:
        """Rewind overdraw so the generator matches per-slot draws."""
        if self._state is not None and self._cursor < self._buf.size:
            # A refill is only ever triggered by a take that then
            # consumes past the leftover, so _consumed > 0 here.
            self._gen.bit_generator.state = self._state
            if self._consumed > 0:
                self._gen.random(self._consumed)
        self._buf = np.empty(0)
        self._cursor = 0
        self._state = None


# ----------------------------------------------------------------------
# Fused slot policies (one per kernel scheduler)
# ----------------------------------------------------------------------


class FusedPolicy:
    """Per-scheduler state hooks for the fused run loop.

    The engine owns the busy set, queue depths, delivery and history;
    a policy owns the scheduler's adaptive state and answers one
    question per slot — who transmits — via :meth:`attempt`, then
    observes the outcome via :meth:`update` (called every slot, in
    *pre-compaction* indexing) and shrinks its arrays in
    :meth:`compact`. All hooks must reproduce the scheduler's kernel
    loop arithmetic exactly: same operations on the same values, so a
    fused run replays the kernel run bit-for-bit.

    The exchange format is sparse: :meth:`attempt` returns the local
    transmit mask *and* the attempter index array, and the outcome
    comes back as ``ok`` — a boolean verdict per attempter — so
    adaptive updates touch O(attempters), not O(busy), elements.
    """

    #: Whether the policy consumes one uniform per busy link per slot.
    uses_rng: bool = True

    def bind(self, model, requests, busy, depths) -> None:
        """Allocate per-run state for the initial busy set."""

    def attempt(self, u: Optional[np.ndarray], depths: np.ndarray):
        """Return ``(mask, att_idx)``: the local transmit mask (a
        reusable buffer) and the attempters' local indices."""
        raise NotImplementedError

    def update(self, att_idx: np.ndarray, ok: np.ndarray) -> None:
        """Apply the post-slot recurrence (pre-compaction indexing)."""

    def compact(self, keep: np.ndarray) -> None:
        """Shrink state to the surviving busy links."""


class KvPolicy(FusedPolicy):
    """Ack-feedback multiplicative adaptation (KV / DISC'10)."""

    def __init__(self, p0: float, p_min: float, backoff: float,
                 recovery_slots: int):
        self.p0 = p0
        self.p_min = p_min
        self.backoff = backoff
        self.recovery_slots = recovery_slots

    def bind(self, model, requests, busy, depths) -> None:
        k = busy.size
        self.probability = np.full(k, self.p0)
        self.idle = np.zeros(k, dtype=np.int64)
        self._att = np.empty(k, dtype=bool)
        self._rec = np.empty(k, dtype=bool)
        self._f1 = np.empty(k)

    def attempt(self, u, depths):
        k = self.probability.size
        mask = np.less(u, self.probability, out=self._att[:k])
        att_idx = mask.nonzero()[0]
        self.idle += 1
        if att_idx.size:
            self.idle[att_idx] = 0
        return mask, att_idx

    def update(self, att_idx, ok):
        # Identical arithmetic to the kernel loop, on the attempter
        # subset only: successes reset to p0, failures back off with
        # the p_min clamp — the values match the full-array gather
        # updates element for element.
        p = self.probability
        if att_idx.size:
            backed = np.maximum(
                p[att_idx] * self.backoff, self.p_min
            )
            p[att_idx] = np.where(ok, self.p0, backed)
        k = p.size
        recovered = np.greater_equal(
            self.idle, self.recovery_slots, out=self._rec[:k]
        )
        # Recovered links never attempted this slot (their idle streak
        # is non-zero), so their probability is untouched above and
        # the full-length doubled/clamped copy-back reproduces the
        # reference's subset update exactly.
        doubled = np.multiply(p, 2.0, out=self._f1[:k])
        np.minimum(doubled, self.p0, out=doubled)
        np.copyto(p, doubled, where=recovered)
        np.copyto(self.idle, 0, where=recovered)

    def compact(self, keep):
        self.probability = self.probability[keep]
        self.idle = self.idle[keep]


class DecayPolicy(FusedPolicy):
    """Non-adaptive ``1/(cI)`` transmission (paper Theorem 19)."""

    def __init__(self, probability_scale: float, measure_floor: float):
        self.probability_scale = probability_scale
        self.measure_floor = measure_floor

    def bind(self, model, requests, busy, depths) -> None:
        measure = max(
            model.interference_measure(list(requests)), self.measure_floor
        )
        self.probability = min(
            1.0, 1.0 / (self.probability_scale * measure)
        )
        self.complement = 1.0 - self.probability
        k = busy.size
        self._lp = np.empty(k)
        self._att = np.empty(k, dtype=bool)
        self._size = k
        self._dirty = True

    def attempt(self, u, depths):
        k = self._size
        lp = self._lp[:k]
        if self._dirty:
            # Same ufunc as the kernel loop's `1 - complement**depths`
            # — recomputed only when depths changed, with identical
            # inputs hence identical bits.
            np.power(self.complement, depths, out=lp)
            np.subtract(1.0, lp, out=lp)
            self._dirty = False
        mask = np.less(u, lp, out=self._att[:k])
        return mask, mask.nonzero()[0]

    def update(self, att_idx, ok):
        if ok.size and ok.any():
            self._dirty = True

    def compact(self, keep):
        self._size = int(np.count_nonzero(keep))
        self._dirty = True


class FkvPolicy(FusedPolicy):
    """Phased decay (FKV, TCS 2011): geometric phase schedule."""

    def __init__(self, probability_scale: float, phase_scale: float):
        self.probability_scale = probability_scale
        self.phase_scale = phase_scale

    def bind(self, model, requests, busy, depths) -> None:
        import math

        requests = list(requests)
        self._n = max(1, len(requests))
        self._log_n = math.log(self._n + 2)
        self._measure = max(model.interference_measure(requests), 1.0)
        self.phase = -1
        self.phase_left = 0
        k = busy.size
        self._lp = np.empty(k)
        self._att = np.empty(k, dtype=bool)
        self._size = k
        self._dirty = True

    def _advance_phase(self) -> None:
        import math

        self.phase += 1
        phase_measure = max(self._measure / 2.0 ** self.phase, 1.0)
        self.probability = min(
            0.25, 1.0 / (self.probability_scale * phase_measure)
        )
        self.complement = 1.0 - self.probability
        self.phase_left = max(
            1,
            math.ceil(
                self.phase_scale
                * self.probability_scale
                * max(phase_measure, self._log_n)
            ),
        )
        self._dirty = True

    def attempt(self, u, depths):
        if self.phase_left == 0:
            self._advance_phase()
        self.phase_left -= 1
        k = self._size
        lp = self._lp[:k]
        if self._dirty:
            np.power(self.complement, depths, out=lp)
            np.subtract(1.0, lp, out=lp)
            self._dirty = False
        mask = np.less(u, lp, out=self._att[:k])
        return mask, mask.nonzero()[0]

    def update(self, att_idx, ok):
        if ok.size and ok.any():
            self._dirty = True

    def compact(self, keep):
        self._size = int(np.count_nonzero(keep))
        self._dirty = True


class HmPolicy(FusedPolicy):
    """Contention-adaptive ``chi / I_busy`` transmission (HM-style)."""

    def __init__(self, chi: float):
        self.chi = chi

    def bind(self, model, requests, busy, depths) -> None:
        self._sub = model.weight_matrix()[np.ix_(busy, busy)]
        self.contention = self._sub.sum(axis=1)
        self._att = np.empty(busy.size, dtype=bool)
        self._p = None

    def attempt(self, u, depths):
        if self._p is None:
            # Exactly the kernel loop's per-slot expression; cached
            # because contention only changes on compaction.
            self._p = np.minimum(
                1.0, self.chi / np.maximum(self.contention, 1.0)
            )
        mask = np.less(u, self._p, out=self._att[:self._p.size])
        return mask, mask.nonzero()[0]

    def compact(self, keep):
        gone = ~keep
        self.contention = (
            self.contention[keep]
            - self._sub[np.ix_(keep, gone)].sum(axis=1)
        )
        self._sub = self._sub[np.ix_(keep, keep)]
        self._p = None


class SingleHopPolicy(FusedPolicy):
    """Every busy link transmits (the trivial packet-routing rule)."""

    uses_rng = False

    def bind(self, model, requests, busy, depths) -> None:
        self._ones = np.ones(busy.size, dtype=bool)
        self._ones.setflags(write=False)
        self._arange = np.arange(busy.size)
        self._size = busy.size

    def attempt(self, u, depths):
        k = self._size
        return self._ones[:k], self._arange[:k]

    def compact(self, keep):
        self._size = int(np.count_nonzero(keep))


# ----------------------------------------------------------------------
# Fused success evaluators
# ----------------------------------------------------------------------


class _FusedEval:
    """Per-slot success evaluation inside the fused loop."""

    def evaluate(self, attempt: np.ndarray, att_idx: np.ndarray):
        """The verdict per attempter (aligned with ``att_idx``).

        ``att_idx`` is non-empty; the result may be a reusable buffer
        valid until the next call.
        """
        raise NotImplementedError

    def drop(self, keep: np.ndarray) -> None:
        """Shrink cached state to the surviving busy links."""


class _AffectanceFusedEval(_FusedEval):
    """Inline affectance criterion on the frozen busy-set submatrix.

    The generic slot gathers the transmitter submatrix with one flat
    ``take`` and row-sums it with the same pairwise reduction the
    scalar reference uses (identical contents, identical routine ⇒
    identical bits — no guard band needed). The all-transmit slot uses
    the incrementally maintained row sums with the established 1e-9
    guard band and exact re-summation at the threshold boundary,
    mirroring ``_AffectanceBatchEvaluator`` arithmetic step for step.
    """

    def __init__(self, model: AffectanceThresholdModel, busy: np.ndarray):
        sub = model.weight_matrix()[np.ix_(busy, busy)]
        self._sub = sub
        self._flat = sub.reshape(-1)
        self._stride = busy.size
        self._row_sums = sub.sum(axis=1)
        self._diag = sub.diagonal().copy()
        self._cols = np.arange(busy.size)
        self._compacted = False
        self._threshold = model.threshold
        self._size = busy.size
        # Scratch pools sized to the transmitter count actually seen;
        # the row-base pool is separate from the 2-D index pool so the
        # broadcast add never reads through its own output.
        self._row_pool = np.empty(busy.size, dtype=np.int64)
        self._imp_pool = np.empty(busy.size)
        self._ok_pool = np.empty(busy.size, dtype=bool)
        self._idx_pool = np.empty(0, dtype=np.int64)
        self._val_pool = np.empty(0)

    def evaluate(self, attempt, att_idx):
        t = att_idx.size
        threshold = self._threshold
        if t == self._size:
            # All-transmit fast path: maintained row sums, guard band,
            # exact re-sum at the boundary (see the batch evaluator).
            impact = self._row_sums - self._diag
            ok = impact <= threshold
            borderline = np.abs(impact - threshold) < 1e-9
            if borderline.any():
                rows = self._cols[borderline]
                exact = (
                    self._sub[rows[:, None], self._cols].sum(axis=1)
                    - self._diag[borderline]
                )
                ok[borderline] = exact <= threshold
            return ok
        t_idx = self._cols.take(att_idx) if self._compacted else att_idx
        if self._idx_pool.size < t * t:
            self._idx_pool = np.empty(t * t * 2, dtype=np.int64)
            self._val_pool = np.empty(t * t * 2)
        idx2d = self._idx_pool[:t * t].reshape(t, t)
        val2d = self._val_pool[:t * t].reshape(t, t)
        rows = np.multiply(t_idx, self._stride, out=self._row_pool[:t])
        np.add(rows.reshape(t, 1), t_idx, out=idx2d)
        # One flat gather of the transmitter submatrix; indices are
        # in-range by construction so the bounds mode is free.
        self._flat.take(idx2d, out=val2d, mode="clip")
        # C-contiguous (t, t) row sums — the same pairwise reduction,
        # on the same values, as the scalar reference's
        # `W[ix_(ids, ids)].sum(axis=1)`, hence bit-identical.
        impact = np.add.reduce(val2d, axis=1, out=self._imp_pool[:t])
        np.subtract(impact, val2d.diagonal(), out=impact)
        return np.less_equal(impact, threshold, out=self._ok_pool[:t])

    def drop(self, keep):
        gone = self._cols[~keep]
        kept = self._cols[keep]
        self._row_sums = (
            self._row_sums[keep]
            - self._sub[kept[:, None], gone].sum(axis=1)
        )
        self._diag = self._diag[keep]
        self._cols = kept
        self._size = kept.size
        self._compacted = True


class _ConflictFusedEval(_FusedEval):
    """Inline conflict check on the frozen adjacency submatrix.

    Pure boolean algebra — exactly the scalar set intersection — so
    the transmitter-submatrix formulation needs no numeric care.
    """

    def __init__(self, model: ConflictGraphModel, busy: np.ndarray):
        adj = model.adjacency_matrix()[np.ix_(busy, busy)]
        self._flat = adj.reshape(-1)
        self._stride = busy.size
        self._cols = np.arange(busy.size)
        self._compacted = False
        self._row_pool = np.empty(busy.size, dtype=np.int64)
        self._idx_pool = np.empty(0, dtype=np.int64)
        self._val_pool = np.empty(0, dtype=bool)

    def evaluate(self, attempt, att_idx):
        t = att_idx.size
        t_idx = self._cols.take(att_idx) if self._compacted else att_idx
        if self._idx_pool.size < t * t:
            self._idx_pool = np.empty(t * t * 2, dtype=np.int64)
            self._val_pool = np.empty(t * t * 2, dtype=bool)
        idx2d = self._idx_pool[:t * t].reshape(t, t)
        val2d = self._val_pool[:t * t].reshape(t, t)
        rows = np.multiply(t_idx, self._stride, out=self._row_pool[:t])
        np.add(rows.reshape(t, 1), t_idx, out=idx2d)
        self._flat.take(idx2d, out=val2d, mode="clip")
        # The adjacency diagonal is False (no self-conflicts), so the
        # row-wise any() over the transmitter submatrix is exactly
        # "some *other* transmitter conflicts with me".
        return ~val2d.any(axis=1)

    def drop(self, keep):
        self._cols = self._cols[keep]
        self._compacted = True


class _GenericFusedEval(_FusedEval):
    """Fallback: route slots through the model's own batch evaluator.

    Used for every model without an inline fast path (SINR, MAC,
    unreliable/jammed wrappers, packet routing, third-party models).
    The fused loop still contributes chunked draws, raw CSR pops and
    lazy history; success evaluation matches the kernel path exactly
    because it *is* the kernel path's evaluator.
    """

    def __init__(self, model: InterferenceModel, busy: np.ndarray):
        self._ev = model.batch_evaluator(busy)

    def evaluate(self, attempt, att_idx):
        return self._ev.successes_local(attempt).take(att_idx)

    def drop(self, keep):
        self._ev.drop(keep)


def _make_fused_eval(model: InterferenceModel, busy: np.ndarray) -> _FusedEval:
    # type(...) checks, not isinstance: subclasses may override the
    # success predicate, in which case the inline fast path would be
    # silently wrong — they get the generic (always-correct) adapter.
    if type(model) is AffectanceThresholdModel:
        return _AffectanceFusedEval(model, busy)
    if type(model) is ConflictGraphModel:
        return _ConflictFusedEval(model, busy)
    return _GenericFusedEval(model, busy)


# ----------------------------------------------------------------------
# The fused engine
# ----------------------------------------------------------------------


def _run_kv_affectance(
    policy: "KvPolicy",
    model: AffectanceThresholdModel,
    requests: Sequence[int],
    budget: int,
    gen: np.random.Generator,
    record_history: bool,
) -> RunResult:
    """Monolithic fast lane for the headline pair: KV × affectance.

    The generic engine pays three Python method calls plus attribute
    walks per slot; this lane inlines the KV recurrence and the
    affectance evaluator into one loop of local bindings, and squeezes
    the op count further with two exact rewrites:

    * queue depths are not materialised — a link's remaining depth is
      ``group_end - head_ptr``, so serving a head is one scatter and
      drain detection one comparison against the group end;
    * the idle-streak array is replaced by ``last_reset`` (the slot the
      streak last restarted): the streak is checked every slot and
      reset at the recovery threshold, so it can only ever *hit* the
      threshold exactly, making "streak >= R" equivalent to
      ``last_reset == slot - R`` — one equality test instead of a
      counter increment plus comparison.

    Everything observable (coins consumed, attempt sets, success sets,
    delivered order, remaining order, history, final generator state)
    replays the kernel path bit-for-bit; the backend parity suite runs
    this exact pair across backends.
    """
    queues = LinkQueues(requests, model.num_links)
    order, starts = queues.csr_arrays()
    busy = queues.busy_array()
    head_ptr = starts[busy].copy()
    end_ptr = starts[busy + 1].copy()
    pending = queues.pending
    k = busy.size

    sub = model.weight_matrix()[np.ix_(busy, busy)]
    sub_flat = sub.reshape(-1)
    stride = k
    row_sums = sub.sum(axis=1)
    diag = sub.diagonal().copy()
    cols = np.arange(k)
    compacted = False
    threshold = model.threshold

    p0 = policy.p0
    p_min = policy.p_min
    backoff = policy.backoff
    rec = policy.recovery_slots
    probability = np.full(k, p0)
    # last_reset[i] == r means link i's idle streak restarted during
    # slot r (attempt or recovery); -1 reproduces the zero-initialised
    # streak (first recovery check fires during slot rec - 1).
    last_reset = np.full(k, -1, dtype=np.int64)

    att_buf = np.empty(k, dtype=bool)
    rec_buf = np.empty(k, dtype=bool)
    row_pool = np.empty(k, dtype=np.int64)
    imp_pool = np.empty(k)
    ok_pool = np.empty(k, dtype=bool)
    idx_pool = np.empty(0, dtype=np.int64)
    val_pool = np.empty(0)

    history: Optional[LazySlotHistory] = None
    if record_history:
        history = LazySlotHistory(np.asarray(requests, dtype=np.int64))

    chunk = ChunkedUniforms(gen)
    ubuf = chunk._buf
    ucursor = 0

    delivered_parts: List[np.ndarray] = []
    slots = 0
    while slots < budget and pending:
        nxt = ucursor + k
        if nxt > ubuf.size:
            chunk._cursor = ucursor
            u = chunk.take(k)
            ubuf = chunk._buf
            ucursor = chunk._cursor
        else:
            u = ubuf[ucursor:nxt]
            ucursor = nxt
            chunk._consumed += k
        attempt = np.less(u, probability, att_buf[:k])
        att_idx = attempt.nonzero()[0]
        t = att_idx.size
        heads = None
        keep = None
        if t:
            last_reset[att_idx] = slots
            if t == k:
                # All-transmit: maintained row sums + guard band with
                # exact re-summation at the threshold boundary.
                impact = row_sums - diag
                ok = impact <= threshold
                borderline = np.abs(impact - threshold) < 1e-9
                if borderline.any():
                    rows = cols[borderline]
                    exact = (
                        sub[rows[:, None], cols].sum(axis=1)
                        - diag[borderline]
                    )
                    ok[borderline] = exact <= threshold
            else:
                t_idx = cols.take(att_idx) if compacted else att_idx
                if idx_pool.size < t * t:
                    idx_pool = np.empty(t * t * 2, dtype=np.int64)
                    val_pool = np.empty(t * t * 2)
                idx2d = idx_pool[:t * t].reshape(t, t)
                val2d = val_pool[:t * t].reshape(t, t)
                rows = np.multiply(t_idx, stride, row_pool[:t])
                np.add(rows.reshape(t, 1), t_idx, idx2d)
                sub_flat.take(idx2d, None, val2d, "clip")
                # Same pairwise row reduction, same values as the
                # scalar reference's submatrix sum: identical bits.
                impact = np.add.reduce(val2d, 1, None, imp_pool[:t])
                np.subtract(impact, val2d.diagonal(), impact)
                ok = np.less_equal(impact, threshold, ok_pool[:t])
            s_idx = att_idx[ok]
            if s_idx.size:
                hp = head_ptr.take(s_idx)
                heads = order.take(hp)
                delivered_parts.append(heads)
                hp += 1
                head_ptr[s_idx] = hp
                pending -= heads.size
                if (hp == end_ptr.take(s_idx)).any():
                    keep = head_ptr < end_ptr
            if history is not None:
                history.append_mask(busy, attempt.copy(), heads)
            # KV recurrence on the attempter subset: success resets to
            # p0, failure backs off with the p_min clamp — identical
            # values to the kernel loop's masked updates.
            backed = np.maximum(
                probability.take(att_idx) * backoff, p_min
            )
            backed[ok] = p0
            probability[att_idx] = backed
        elif history is not None:
            history.append_empty()
        # Recovery: a streak can only ever hit the threshold exactly
        # (it is checked and reset every slot), and this slot's
        # attempters were re-stamped above, so the equality test
        # matches "idle >= rec" on the reference path bit for bit.
        recovered = np.equal(last_reset, slots - rec, rec_buf[:k])
        rec_idx = recovered.nonzero()[0]
        if rec_idx.size:
            doubled = probability.take(rec_idx) * 2.0
            np.minimum(doubled, p0, out=doubled)
            probability[rec_idx] = doubled
            last_reset[rec_idx] = slots
        if keep is not None:
            busy = busy[keep]
            head_ptr = head_ptr[keep]
            end_ptr = end_ptr[keep]
            probability = probability[keep]
            last_reset = last_reset[keep]
            gone = cols[~keep]
            kept = cols[keep]
            row_sums = (
                row_sums[keep] - sub[kept[:, None], gone].sum(axis=1)
            )
            diag = diag[keep]
            cols = kept
            compacted = True
            k = busy.size
        slots += 1
    chunk._cursor = ucursor
    chunk.finalize()

    if delivered_parts:
        delivered = np.concatenate(delivered_parts).tolist()
    else:
        delivered = []
    remaining: List[int] = []
    for i in range(busy.size):
        remaining.extend(order[head_ptr[i]:starts[busy[i] + 1]].tolist())
    return RunResult(
        delivered=delivered,
        remaining=remaining,
        slots_used=slots,
        history=history,
    )


def run_fused(
    policy: FusedPolicy,
    model: InterferenceModel,
    requests: Sequence[int],
    budget: int,
    gen: np.random.Generator,
    record_history: bool = False,
) -> RunResult:
    """Run a policy to completion on the fused numpy backend.

    One slot costs: a chunk-buffer view + one comparison for the
    coins, one flat submatrix gather + row-sum for the evaluator, and
    attempter-subset gathers/scatters for the CSR head pops, depth
    bookkeeping and the policy recurrence — with zero per-slot
    allocations beyond the sparse index arrays.
    """
    if (
        type(policy) is KvPolicy
        and type(model) is AffectanceThresholdModel
    ):
        return _run_kv_affectance(
            policy, model, requests, budget, gen, record_history
        )

    queues = LinkQueues(requests, model.num_links)
    order, starts = queues.csr_arrays()
    busy = queues.busy_array()
    depths = queues.depths_for(busy)
    head_ptr = starts[busy].copy()
    pending = queues.pending

    policy.bind(model, requests, busy, depths)
    evaluator = _make_fused_eval(model, busy)
    chunk = ChunkedUniforms(gen) if policy.uses_rng else None

    history: Optional[LazySlotHistory] = None
    if record_history:
        req_links = np.asarray(requests, dtype=np.int64)
        history = LazySlotHistory(req_links)

    # Local bindings for the hot loop; the chunk cursor is inlined so
    # the common take is one slice plus two int updates, not a method
    # call (the refill slow path still goes through the chunk object,
    # which owns the leftover splice and the rewind snapshot).
    uses_rng = chunk is not None
    ubuf = chunk._buf if chunk is not None else None
    ucursor = 0
    attempt_fn = policy.attempt
    update_fn = policy.update
    evaluate = evaluator.evaluate
    no_ok = np.empty(0, dtype=bool)

    delivered_parts: List[np.ndarray] = []
    slots = 0
    while slots < budget and pending:
        k = busy.size
        if uses_rng:
            nxt = ucursor + k
            if nxt > ubuf.size:
                chunk._cursor = ucursor
                u = chunk.take(k)
                ubuf = chunk._buf
                ucursor = chunk._cursor
            else:
                u = ubuf[ucursor:nxt]
                ucursor = nxt
                chunk._consumed += k
            attempt, att_idx = attempt_fn(u, depths)
        else:
            attempt, att_idx = attempt_fn(None, depths)
        heads = None
        keep = None
        if att_idx.size:
            ok = evaluate(attempt, att_idx)
            if ok.any():
                s_idx = att_idx[ok]
                hp = head_ptr.take(s_idx)
                heads = order.take(hp)
                delivered_parts.append(heads)
                head_ptr[s_idx] = hp + 1
                served = depths.take(s_idx) - 1
                depths[s_idx] = served
                pending -= heads.size
                if not served.all():
                    keep = depths > 0
        else:
            ok = no_ok
        if history is not None:
            if att_idx.size:
                history.append_mask(busy, attempt.copy(), heads)
            else:
                history.append_empty()
        update_fn(att_idx, ok)
        if keep is not None:
            busy = busy[keep]
            depths = depths[keep]
            head_ptr = head_ptr[keep]
            evaluator.drop(keep)
            policy.compact(keep)
        slots += 1
    if chunk is not None:
        chunk._cursor = ucursor
        chunk.finalize()

    if delivered_parts:
        delivered = np.concatenate(delivered_parts).tolist()
    else:
        delivered = []
    remaining: List[int] = []
    for i in range(busy.size):
        remaining.extend(
            order[head_ptr[i]:starts[busy[i] + 1]].tolist()
        )
    return RunResult(
        delivered=delivered,
        remaining=remaining,
        slots_used=slots,
        history=history,
    )


__all__ = [
    "BACKENDS",
    "ChunkedUniforms",
    "DecayPolicy",
    "FkvPolicy",
    "FusedPolicy",
    "HmPolicy",
    "KvPolicy",
    "SingleHopPolicy",
    "available_backends",
    "default_backend",
    "numba_available",
    "resolve_backend",
    "run_fused",
    "scalar_forced",
    "set_default_backend",
    "use_backend",
]

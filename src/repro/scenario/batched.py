"""The ``batched`` fleet executor: whole networks advanced in waves.

BENCH_p5 measured that process-per-network cannot amortise small
networks (each is too cheap to ship to a worker, and the bench
container has one CPU). This layer instead routes a fleet through
:mod:`repro.staticsched.batchloop`: every eligible
:class:`~repro.scenario.fleet.FleetUnit` becomes a *step generator*
(its whole simulation — engine frame loop, protocol frame, transform
rounds — expressed through the :mod:`repro.core.steps` seam), and one
in-process wave engine advances all of their static-algorithm sub-runs
together. Results are bit-identical to ``unit.run()`` by construction:
the generators execute the same bookkeeping code the serial entry
points drive, and the wave engine's per-network RunResults and RNG end
states are bit-identical to serial fused runs.

Eligibility and grouping
------------------------
A unit batches when its spec resolves to the fused ``numpy`` run-loop
backend (``auto`` and ``numba`` are aliases for it), its scheduler
has a fused policy, and it is not checkpointed (resume runs through
its own serial machinery). Ineligible units fall back *loudly* — one
aggregated :class:`BatchFallbackWarning` per run summarising every
fallback (reason → count), or an immediate error under ``strict`` —
and run serially. Eligible units are grouped by compatible signature
(scheduler, model, kwargs, transform, metrics) and, within a
group, by a padding-waste bound: units are sorted by link count and
split greedily so no member has more than ``padding_ratio`` times the
links of its group's smallest member (the wave tensor pads every
network to the group's widest). Networks larger than ``large_links``
skip batching entirely — at that size the slot loop's numpy calls
operate on arrays big enough to amortise themselves, which is exactly
when the process executor starts winning instead.

Mixed ``frames`` counts batch fine (a retired network simply stops
contributing tasks; its RNG streams are private so survivors are
unperturbed), as do batches of one and zero-link networks (their tasks
are born finished and execute inline).
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.transform import TransformedAlgorithm
from repro.errors import ConfigurationError
from repro.scenario.fleet import FleetUnit
from repro.sim.engine import FrameSimulation
from repro.sim.runner import summarize_cell
from repro.staticsched.batchloop import run_batched_streams
from repro.staticsched.runloop import resolve_backend

#: Alias of :func:`run_batched_streams`, kept because
#: ``perfbench/tracing.py`` patches this module attribute by name.
run_batched_streams_jit = run_batched_streams

#: Schedulers with a ``fused_policy`` factory (kept in sync with the
#: registry; unknown schedulers simply fall back to serial).
BATCHABLE_SCHEDULERS = frozenset(
    {"kv", "decay", "fkv", "hm", "single-hop"}
)


class BatchFallbackWarning(UserWarning):
    """A fleet unit left the batched path for per-unit execution."""


def _ineligible_reason(unit: Any) -> Optional[str]:
    """Why ``unit`` cannot batch, or None when it can."""
    if not isinstance(unit, FleetUnit):
        return (
            f"work unit {type(unit).__name__} is not a FleetUnit "
            "(only scenario fleets batch)"
        )
    if unit.checkpoint_path is not None:
        return "checkpointed units resume through their serial path"
    spec = unit.spec
    try:
        backend = resolve_backend(spec.backend)
    except ConfigurationError:
        return f"backend {spec.backend!r} does not resolve"
    if backend != "numpy":
        return f"backend {backend!r} has no fused run loop"
    if spec.scheduler not in BATCHABLE_SCHEDULERS:
        return f"scheduler {spec.scheduler!r} has no fused policy"
    return None


def _relay(call):
    """Yield the batchable form of one AlgorithmCall (sub-generator).

    Transformed algorithms are unrolled through their own step
    generator so each base sub-run batches individually; plain fused
    schedulers are yielded directly; anything else (no fused policy, or
    history recording) executes synchronously in place.
    """
    algorithm = call.algorithm
    if isinstance(algorithm, TransformedAlgorithm):
        base = algorithm.base
        if call.record_history or getattr(base, "fused_policy", None) is None:
            return call.execute()
        return (
            yield from algorithm.run_steps(
                call.model,
                call.requests,
                call.budget,
                call.rng,
                call.record_history,
            )
        )
    if call.record_history or getattr(algorithm, "fused_policy", None) is None:
        return call.execute()
    return (yield call)


def _unit_stream(unit: FleetUnit, built):
    """One fleet unit as a step generator returning its CellResult.

    Mirrors ``ScenarioSpec.run`` exactly — same construction, same
    measurement reduction — with the frame loop driven through the
    generator seam. No backend context is entered: the wave engine is
    bit-identical to every fused backend, and a context manager held
    across yields would corrupt the backend override stack for the
    other interleaved networks.
    """
    spec = unit.spec
    simulation = FrameSimulation(
        built.protocol, built.injection, metrics=spec.metrics
    )
    steps = simulation.run_steps(spec.frames)
    try:
        call = next(steps)
        while True:
            result = yield from _relay(call)
            call = steps.send(result)
    except StopIteration:
        pass
    return summarize_cell(
        built.protocol,
        simulation.metrics,
        spec.frames,
        rate=built.rate,
        seed=spec.seed,
        rate_index=unit.index,
        load_per_frame=None,
        load_from_injected=spec.load_from_injected,
    )


def _group_key(spec) -> Tuple:
    """Batch-compatibility signature (frames deliberately excluded)."""

    def frozen(kwargs) -> Tuple:
        return tuple(sorted((str(k), repr(v)) for k, v in kwargs.items()))

    return (
        spec.scheduler,
        frozen(spec.scheduler_kwargs),
        spec.model,
        frozen(spec.model_kwargs),
        spec.transform,
        spec.chi_scale if spec.transform else None,
        spec.metrics,
    )


def run_fleet_batched(
    units: Sequence[Any],
    padding_ratio: float = 4.0,
    large_links: int = 512,
    strict: bool = False,
) -> List:
    """Run fleet units through the wave engine; results in input order.

    Every result is bit-identical to ``unit.run()``. Ineligible units
    warn (:class:`BatchFallbackWarning`) and run serially; under
    ``strict`` they raise instead.
    """
    if not padding_ratio >= 1.0:
        raise ConfigurationError(
            f"padding_ratio must be >= 1, got {padding_ratio}"
        )
    if large_links < 1:
        raise ConfigurationError(
            f"large_links must be >= 1, got {large_links}"
        )
    units = list(units)
    results: List = [None] * len(units)
    serial_positions: List[int] = []
    groups: Dict[Tuple, List[Tuple[int, FleetUnit, Any, int]]] = {}
    # reason -> positions, in first-seen order; emitted as ONE summary
    # warning after the loop so a large fleet with many fallbacks does
    # not flood the warning stream (strict still raises immediately,
    # per unit, with the precise position).
    fallbacks: Dict[str, List[int]] = {}
    for position, unit in enumerate(units):
        reason = _ineligible_reason(unit)
        if reason is not None:
            if strict:
                raise ConfigurationError(
                    f"fleet unit {position} cannot batch ({reason}); "
                    "running it serially"
                )
            fallbacks.setdefault(reason, []).append(position)
            serial_positions.append(position)
            continue
        built = unit.spec.build()
        links = int(built.model.num_links)
        if links > large_links:
            # By design, not a fallback: a network this large amortises
            # its own numpy calls (and suits the process executor).
            serial_positions.append(position)
            continue
        groups.setdefault(_group_key(unit.spec), []).append(
            (position, unit, built, links)
        )

    if fallbacks:
        total = sum(len(positions) for positions in fallbacks.values())
        details = "; ".join(
            f"{reason} [x{len(positions)}]"
            for reason, positions in fallbacks.items()
        )
        warnings.warn(
            f"{total} of {len(units)} fleet unit(s) cannot batch; "
            f"running them serially ({details})",
            BatchFallbackWarning,
            stacklevel=2,
        )

    for members in groups.values():
        # Padding-waste bound: greedy split over ascending link counts
        # so no batch member pads beyond ratio x its smallest peer.
        members.sort(key=lambda member: (member[3], member[0]))
        batch: List[Tuple[int, FleetUnit, Any, int]] = []
        batches = []
        for member in members:
            floor_links = max(1, batch[0][3]) if batch else None
            if batch and member[3] > floor_links * padding_ratio:
                batches.append(batch)
                batch = []
            batch.append(member)
        if batch:
            batches.append(batch)
        for batch in batches:
            streams = [
                _unit_stream(unit, built) for _, unit, built, _ in batch
            ]
            outputs = run_batched_streams(streams)
            for (position, _, _, _), output in zip(batch, outputs):
                results[position] = output

    for position in serial_positions:
        results[position] = units[position].run()
    return results


class BatchedExecutor:
    """Executor running fleets through the in-process wave engine.

    Drop-in for the serial/process executors anywhere a fleet or
    campaign takes one (``map(units) -> results``, order preserved,
    records bit-identical). ``workers`` is accepted for interface
    parity and ignored — batching is the single-CPU answer to fleet
    throughput.
    """

    name = "batched"

    def __init__(
        self,
        workers: Optional[int] = None,
        padding_ratio: float = 4.0,
        large_links: int = 512,
        strict: bool = False,
    ):
        del workers  # interface parity with the other executors
        self.padding_ratio = float(padding_ratio)
        self.large_links = int(large_links)
        self.strict = bool(strict)

    def map(self, cells: Sequence[Any]) -> List:
        return run_fleet_batched(
            cells,
            padding_ratio=self.padding_ratio,
            large_links=self.large_links,
            strict=self.strict,
        )


__all__ = [
    "BATCHABLE_SCHEDULERS",
    "BatchFallbackWarning",
    "BatchedExecutor",
    "run_fleet_batched",
]

"""Span recording around the program's layer boundaries.

The benchmark measures the program from outside: :func:`instrument`
wraps the public entry points of each layer in place (class attributes
and the module globals the program looks them up through) and undoes
every wrap when it exits. Nothing under ``src/`` knows it is traced.

A span is ``(name, start_ns, end_ns, parent)`` with ``name`` of the
form ``"layer:function"``; spans live in memory and are written out by
the caller when the run ends. A layer's self time is its spans'
durations minus the time their child spans cover, so the self times of
all layers plus the root's own self time add up to the root span.

Counts are taken at the same boundaries. Static-algorithm calls are
counted by wrapping the public step generators
(``FrameSimulation.run_steps``, ``TransformedAlgorithm.run_steps``),
which both the serial ``drive_steps`` loop and the wave engine consume,
so the counts do not depend on which of them executed the calls.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS = (
    "injection",
    "protocol",
    "transform",
    "staticsched",
    "batchloop",
    "scenario",
    "metrics",
    "stability",
    "checkpoint",
)

Span = Tuple[str, int, int, int]


class Recorder:
    """In-memory spans and counters of one traced job."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def inside(self, scope: str) -> bool:
        """Whether the innermost open span is ``scope``: a layer, or one
        ``"layer:function"`` name."""
        if not self._stack:
            return False
        name = self.spans[self._stack[-1]][0]
        return name == scope or name.split(":", 1)[0] == scope

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_ns):
            totals[name] = totals.get(name, 0.0) + (end - start - children) / 1e9
        return totals

    def layer_self_times(self) -> Dict[str, float]:
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times().items():
            layer = name.split(":", 1)[0]
            if layer in by_layer:
                by_layer[layer] += seconds
        return by_layer

    def records(self) -> Iterable[dict]:
        for index, (name, start, end, parent) in enumerate(self.spans):
            yield {
                "id": index,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
            }


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def wrap(self, owner, name: str, make):
        had_own = name in vars(owner)
        original = getattr(owner, name)
        replacement = make(original)
        functools.update_wrapper(replacement, original)
        setattr(owner, name, replacement)
        self._undo.append((owner, name, had_own, original))

    def undo(self) -> None:
        while self._undo:
            owner, name, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _timed(rec: Recorder, name: str, count: Optional[str] = None, after=None,
           scope: Optional[str] = None):
    """Wrapper factory: one span per call.

    ``count`` and ``after`` see only calls made from outside ``scope``
    (by default the span's layer), so a layer entry point that calls
    another one is counted once.
    """
    scope = scope or name.split(":", 1)[0]

    def make(original):
        def wrapper(*args, **kwargs):
            outermost = not rec.inside(scope)
            index = rec.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.exit(index)
            if outermost:
                if count is not None:
                    rec.counts[count] += 1
                if after is not None:
                    after(args, result)
            return result

        return wrapper

    return make


def _step_generator(rec: Recorder, name: str, on_call, on_result, on_done):
    """Wrapper factory for a step generator: spans cover its resumes only.

    The algorithm calls it yields are executed by whoever drives it
    (``drive_steps`` or the wave engine), outside these spans.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            steps = original(*args, **kwargs)
            value = None
            while True:
                index = rec.enter(name)
                try:
                    call = steps.send(value)
                except StopIteration as stop:
                    on_done(args)
                    return stop.value
                finally:
                    rec.exit(index)
                on_call(call)
                value = yield call
                on_result(call, value)

        return wrapper

    return make


@contextlib.contextmanager
def instrument(rec: Recorder, injection_classes=(), extra_builds=()):
    """Wrap every layer boundary for the duration of the block.

    ``injection_classes`` are the built injection processes' classes;
    ``extra_builds`` are ``(owner, name)`` build functions the job
    calls directly, traced as scenario builds.
    """
    import repro.core.steps as steps_module
    import repro.scenario.batched as batched
    import repro.scenario.fleet as fleet
    import repro.scenario.spec as spec
    import repro.sim.checkpoint as checkpoint
    import repro.sim.engine as engine
    import repro.sim.metrics as metrics
    import repro.sim.runner as runner
    import repro.sim.stability as stability
    from repro.core.transform import TransformedAlgorithm

    counts = rec.counts
    patches = _Patches()

    def base_call(call) -> bool:
        return not isinstance(call.algorithm, TransformedAlgorithm)

    def count_call(call) -> None:
        counts["staticsched.calls"] += 1
        counts["staticsched.budget_slots"] += int(call.budget)
        counts["staticsched.requests"] += len(call.requests)

    def count_result(call, result) -> None:
        counts["staticsched.served"] += len(result.delivered)

    # injection
    def injected(args, result):
        start, end = args[1], args[2]
        counts["injection.slots"] += int(end) - int(start)
        counts["injection.packets"] += len(result)

    for cls in injection_classes:
        for method in ("indices_for_range", "packets_for_range"):
            patches.wrap(
                cls, method,
                _timed(rec, f"injection:{method}", "injection.calls", injected),
            )

    # protocol: frame bookkeeping is the self time of the engine's steps
    def protocol_call(call):
        if base_call(call):
            count_call(call)

    def protocol_result(call, result):
        if base_call(call):
            count_result(call, result)

    def frames_done(args):
        counts["protocol.frames"] += int(args[1])

    patches.wrap(
        engine.FrameSimulation, "run_steps",
        _step_generator(rec, "protocol:run_steps", protocol_call,
                        protocol_result, frames_done),
    )

    # transform
    def subrun(call):
        counts["transform.subruns"] += 1
        count_call(call)

    patches.wrap(TransformedAlgorithm, "run", _timed(rec, "transform:run"))
    patches.wrap(
        TransformedAlgorithm, "run_steps",
        _step_generator(rec, "transform:run_steps", subrun, count_result,
                        lambda args: None),
    )

    # staticsched: the serial slot loop on the base algorithm
    def make_execute(original):
        def execute(call):
            if not base_call(call):
                return original(call)
            counts["staticsched.serial_budget_slots"] += int(call.budget)
            with rec.span("staticsched:execute"):
                return original(call)

        return execute

    patches.wrap(steps_module.AlgorithmCall, "execute", make_execute)

    # batchloop: the wave engine, as the batched executor binds it
    def batch_done(args, result):
        counts["batchloop.streams"] += len(args[0])

    for name in ("run_batched_streams", "run_batched_streams_jit"):
        patches.wrap(
            batched, name,
            _timed(rec, f"batchloop:{name}", "batchloop.batches", batch_done),
        )

    # scenario: fleet runner, executor, builds, units that ran serially
    def units_mapped(args, result):
        counts["scenario.units"] += len(args[1])

    patches.wrap(fleet, "run_scenario_fleet",
                 _timed(rec, "scenario:run_scenario_fleet"))
    # The executor runs inside the fleet runner, so these count per call.
    patches.wrap(batched.BatchedExecutor, "map",
                 _timed(rec, "scenario:map", after=units_mapped,
                        scope="scenario:map"))
    patches.wrap(spec.ScenarioSpec, "build", _timed(rec, "scenario:build"))
    for owner, name in extra_builds:
        patches.wrap(owner, name, _timed(rec, "scenario:build"))
    patches.wrap(fleet.FleetUnit, "run",
                 _timed(rec, "scenario:unit_run", "scenario.serial_units",
                        scope="scenario:unit_run"))

    # metrics
    for method in ("record_frame", "absorb_latencies"):
        patches.wrap(
            metrics.MetricsRecorder, method,
            _timed(rec, f"metrics:{method}", "metrics.calls"),
        )
    for module in (runner, batched):
        patches.wrap(
            module, "summarize_cell",
            _timed(rec, "metrics:summarize_cell", "metrics.calls"),
        )

    # stability
    for name in ("assess_stability", "assess_stability_windowed",
                 "assess_stability_streaming"):
        patches.wrap(
            stability, name,
            _timed(rec, f"stability:{name}", "stability.calls"),
        )

    # checkpoint
    def written(args, result):
        counts["checkpoint.bytes"] += os.path.getsize(args[0])

    patches.wrap(
        checkpoint, "save_checkpoint",
        _timed(rec, "checkpoint:save_checkpoint", "checkpoint.writes", written),
    )
    patches.wrap(
        checkpoint, "load_checkpoint_into",
        _timed(rec, "checkpoint:load_checkpoint_into"),
    )
    try:
        yield rec
    finally:
        patches.undo()


def layer_metrics(rec: Recorder, run_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced job of ``run_s`` seconds.

    Every metric is present; a layer the job never entered reads 0.
    """
    names = rec.self_times()
    layers = rec.layer_self_times()
    c = rec.counts

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    def share(layer: str) -> float:
        return ratio(layers[layer], run_s)

    checkpoint_write = names.get("checkpoint:save_checkpoint", 0.0)
    build = names.get("scenario:build", 0.0)
    return {
        "injection.busy_s": layers["injection"],
        "injection.share": share("injection"),
        "injection.calls": c["injection.calls"],
        "injection.packets": c["injection.packets"],
        "injection.us_per_kslot": ratio(
            layers["injection"] * 1e6, c["injection.slots"] / 1000.0
        ),
        "protocol.self_s": layers["protocol"],
        "protocol.share": share("protocol"),
        "protocol.frames": c["protocol.frames"],
        "protocol.us_per_frame": ratio(
            layers["protocol"] * 1e6, c["protocol.frames"]
        ),
        "transform.self_s": layers["transform"],
        "transform.share": share("transform"),
        "transform.subruns": c["transform.subruns"],
        "staticsched.busy_s": layers["staticsched"],
        "staticsched.share": share("staticsched"),
        "staticsched.calls": c["staticsched.calls"],
        "staticsched.budget_slots": c["staticsched.budget_slots"],
        "staticsched.requests": c["staticsched.requests"],
        "staticsched.served": c["staticsched.served"],
        "staticsched.served_ratio": ratio(
            c["staticsched.served"], c["staticsched.requests"]
        ),
        # Over the calls drive_steps executed serially; the wave engine's
        # slot loop is batchloop time.
        "staticsched.ns_per_budget_slot": ratio(
            layers["staticsched"] * 1e9, c["staticsched.serial_budget_slots"]
        ),
        "batchloop.busy_s": layers["batchloop"],
        "batchloop.share": share("batchloop"),
        "batchloop.batches": c["batchloop.batches"],
        "batchloop.streams": c["batchloop.streams"],
        "scenario.self_s": layers["scenario"] - build,
        "scenario.build_s": build,
        "scenario.serial_units": c["scenario.serial_units"],
        "scenario.serial_ratio": ratio(
            c["scenario.serial_units"], c["scenario.units"]
        ),
        "metrics.busy_s": layers["metrics"],
        "metrics.share": share("metrics"),
        "metrics.calls": c["metrics.calls"],
        "stability.busy_s": layers["stability"],
        "stability.calls": c["stability.calls"],
        "checkpoint.write_s": checkpoint_write,
        "checkpoint.read_s": names.get("checkpoint:load_checkpoint_into", 0.0),
        "checkpoint.writes": c["checkpoint.writes"],
        "checkpoint.bytes": c["checkpoint.bytes"],
        "checkpoint.write_mb_per_s": ratio(
            c["checkpoint.bytes"] / 1e6, checkpoint_write
        ),
        "trace.coverage": ratio(sum(layers.values()), run_s),
    }

"""P4 — fused run-loop backends vs the P1 per-slot kernel path.

The perf tentpole of the run-loop backend PR: on the P1 headline
workload (a 500-link dynamic-protocol stability run under the
ack-feedback KV scheduler, store-mode bookkeeping) the fused
pure-numpy backend must clear at least **1.5×** the slots/sec of the
P1 kernel path it subsumes.

Workloads:

* ``stability-500link-kv`` — the headline: the same 500-link
  affectance instance and frame parameters as BENCH_p1, but with the
  struct-of-arrays packet store (P2) carrying the protocol side, so
  the slot loop dominates wall-clock and the backend comparison is
  undiluted. Timed per backend, interleaved min-of-3; the run outcome
  (delivered ids, packets in system, failure count) must be identical
  across backends and repetitions before any number is reported.
* ``static-singlehop-500link`` — the all-transmit fast path (row-sum
  evaluator) in isolation.
* ``history-500link-kv`` — a 500-link KV backlog drain on the fused
  backend with and without ``record_history``: the lazy array-backed
  history must keep recording overhead at or below **10%** (it used
  to build two Python-int tuples per slot).

Results go to ``BENCH_p4.json`` (see ``benchmarks/run_perf.py``).
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import numpy as np

from _harness import once, print_experiment
from bench_p1_slot_kernel import FRAME, NUM_LINKS, build_model

import repro
from repro.staticsched import KvScheduler, SingleHopScheduler
from repro.staticsched.runloop import available_backends, use_backend

FRAMES = 8
TIMING_REPEATS = 3

#: Floors enforced by the pytest wrapper (and run_perf for numpy).
NUMPY_FLOOR = 1.5
HISTORY_OVERHEAD_CEILING = 0.10


def _stability_run(frames: int, backend: str):
    """One store-mode stability run; only the frame loop is timed."""
    model = build_model()
    routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, FRAME.rate, num_generators=8, rng=1017
    )
    protocol = repro.DynamicProtocol(
        model, KvScheduler(), FRAME.rate, params=FRAME, rng=17,
        store=injection.store,
    )
    simulation = repro.FrameSimulation(protocol, injection)
    with use_backend(backend):
        start = time.perf_counter()
        simulation.run(frames)
        seconds = time.perf_counter() - start
    outcome = {
        "delivered": len(protocol.delivered),
        "in_system": protocol.packets_in_system,
        "failures": protocol.potential.total_failures,
    }
    return outcome, seconds


def _static_singlehop(backend: str):
    model = build_model(reach=40, base=0.5, exponent=1.5)
    model.weight_matrix()
    rng = np.random.default_rng(23)
    requests = list(rng.integers(0, NUM_LINKS, size=4000))
    with use_backend(backend):
        start = time.perf_counter()
        result = SingleHopScheduler().run(
            model, requests, 1200, rng=np.random.default_rng(29)
        )
        seconds = time.perf_counter() - start
    outcome = {
        "slots": result.slots_used,
        "delivered": len(result.delivered),
    }
    return outcome, seconds


def _history_drain(record_history: bool):
    model = build_model()
    model.weight_matrix()
    rng = np.random.default_rng(23)
    requests = list(rng.integers(0, NUM_LINKS, size=13000))
    with use_backend("numpy"):
        start = time.perf_counter()
        result = KvScheduler().run(
            model, requests, 900, rng=np.random.default_rng(29),
            record_history=record_history,
        )
        seconds = time.perf_counter() - start
    outcome = {
        "slots": result.slots_used,
        "delivered": len(result.delivered),
    }
    return outcome, seconds, result


def _interleaved_min(runners):
    """Time the named runners interleaved, min-of-N wall-clock each.

    Interleaving means a slow window in a shared container degrades
    every mode's samples instead of biasing one side of a ratio; the
    min is the standard noise-robust estimator. Outcomes must agree
    across modes and repetitions, which is asserted.
    """
    seconds = {name: float("inf") for name in runners}
    outcomes = {}
    for _ in range(TIMING_REPEATS):
        for name, runner in runners.items():
            outcome, elapsed = runner()
            reference = outcomes.setdefault(name, outcome)
            assert reference == outcome, (
                f"{name}: outcome diverged across repetitions"
            )
            seconds[name] = min(seconds[name], elapsed)
    first = next(iter(outcomes))
    for name, outcome in outcomes.items():
        assert outcome == outcomes[first], (
            f"backends diverged: {first} produced {outcomes[first]}, "
            f"{name} produced {outcome}"
        )
    return seconds, outcomes[first]


def run_experiment(frames: int = FRAMES, out_path=None, tags=None):
    backends = [
        name for name in available_backends() if name != "scalar"
    ]

    slots = frames * FRAME.frame_length
    headline_secs, headline_outcome = _interleaved_min({
        backend: (lambda b=backend: _stability_run(frames, b))
        for backend in backends
    })
    singlehop_secs, singlehop_outcome = _interleaved_min({
        backend: (lambda b=backend: _static_singlehop(b))
        for backend in backends
    })

    # History overhead on the fused backend. The effect being bounded
    # is small (~1 µs/slot), so it gets more interleaved repetitions
    # than the ratio workloads — container wall-clock jitter on a
    # ~0.5 s drain otherwise drowns a few-percent measurement.
    hist_secs = {"plain": float("inf"), "history": float("inf")}
    hist_result = None
    for _ in range(TIMING_REPEATS + 2):
        _, plain_s, _ = _history_drain(False)
        _, hist_s, hist_result = _history_drain(True)
        hist_secs["plain"] = min(hist_secs["plain"], plain_s)
        hist_secs["history"] = min(hist_secs["history"], hist_s)
    history_overhead = hist_secs["history"] / hist_secs["plain"] - 1.0
    # The lazy history must actually contain the run.
    assert len(hist_result.history) == hist_result.slots_used

    headline_speedup = (
        headline_secs["kernel"] / headline_secs["numpy"]
    )

    payload = {
        "benchmark": "p4_runloop",
        "created_unix": time.time(),
        "links": NUM_LINKS,
        "frames": frames,
        "backends": backends,
        "workloads": [
            {
                "name": "stability-500link-kv",
                "slots": slots,
                **headline_outcome,
                "seconds": headline_secs,
                "slots_per_sec": {
                    backend: slots / seconds
                    for backend, seconds in headline_secs.items()
                },
            },
            {
                "name": "static-singlehop-500link",
                **singlehop_outcome,
                "seconds": singlehop_secs,
                "slots_per_sec": {
                    backend: singlehop_outcome["slots"] / seconds
                    for backend, seconds in singlehop_secs.items()
                },
            },
            {
                "name": "history-500link-kv",
                "slots": hist_result.slots_used,
                "seconds": hist_secs,
                "history_overhead": history_overhead,
            },
        ],
        "headline_speedup": headline_speedup,
        "history_overhead": history_overhead,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tags:
        payload.update(tags)
    if out_path is None:
        out_path = Path(__file__).resolve().parents[1] / "BENCH_p4.json"
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")

    rows = []
    for workload in payload["workloads"][:2]:
        per_backend = workload["slots_per_sec"]
        rows.append([
            workload["name"],
            workload["slots"],
            f"{per_backend['kernel']:,.0f}",
            f"{per_backend['numpy']:,.0f}",
            f"{per_backend['numpy'] / per_backend['kernel']:.2f}x",
        ])
    rows.append([
        "history-500link-kv",
        hist_result.slots_used,
        "-",
        "-",
        f"{history_overhead:+.1%} rec",
    ])
    print_experiment(
        "P4",
        "Fused run-loop backends: chunked coins, sparse bookkeeping "
        "and lazy history vs the P1 per-slot kernel path",
        ["workload", "slots", "kernel slots/s", "numpy slots/s",
         "numpy/kernel"],
        rows,
    )
    return payload


def test_p4_runloop(benchmark):
    payload = once(benchmark, run_experiment)
    assert payload["headline_speedup"] >= NUMPY_FLOOR, (
        "fused numpy backend below the 1.5x acceptance floor: "
        f"{payload['headline_speedup']:.2f}x"
    )
    assert payload["history_overhead"] <= HISTORY_OVERHEAD_CEILING, (
        "history recording overhead above the 10% ceiling: "
        f"{payload['history_overhead']:.1%}"
    )

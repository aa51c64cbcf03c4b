"""A1 — ablation: the clean-up phase is what drains failed packets.

The paper (PAPER.md) makes the two-phase frame the protocol's
load-bearing design choice: failed packets leave the phase-1 population (keeping
Claim 5's overload probability applicable) and are drained by the
clean-up lottery at rate >= 1/(2em) (Lemma 6).

Reproduction: force failures with a deliberately starved phase-1
budget (zero slots — every active packet fails once), then compare the
potential trajectory with the clean-up enabled vs disabled. Expected:
with clean-up the potential plateaus and packets are delivered; without
it the potential only ever grows and nothing is delivered.
"""

from _harness import once, print_experiment

import repro
from repro.core.frames import FrameParameters
from repro.injection.packet import Packet


def run_case(cleanup_enabled, frames=300):
    net = repro.line_network(4)
    model = repro.PacketRoutingModel(net)
    params = FrameParameters(
        frame_length=10, phase1_budget=0, cleanup_budget=5,
        measure_budget=1.0, epsilon=0.5, rate=0.05, f_m=1.0, m=net.size_m,
    )
    protocol = repro.DynamicProtocol(
        model, repro.SingleHopScheduler(), rate=0.05, params=params,
        cleanup_enabled=cleanup_enabled, rng=0,
    )
    generator = repro.PathGenerator([((0, 1), 0.004)])
    injection = repro.StochasticInjection([generator], rng=1)
    simulation = repro.FrameSimulation(protocol, injection)
    simulation.run(frames)
    return protocol, simulation.metrics


def run_experiment():
    with_cleanup, metrics_with = run_case(True)
    without_cleanup, metrics_without = run_case(False)
    rows = [
        [
            "clean-up enabled",
            metrics_with.injected_total,
            metrics_with.delivered_count(),
            with_cleanup.potential.value,
            with_cleanup.potential.total_cleanup_hops,
        ],
        [
            "clean-up disabled (A1)",
            metrics_without.injected_total,
            metrics_without.delivered_count(),
            without_cleanup.potential.value,
            without_cleanup.potential.total_cleanup_hops,
        ],
    ]
    print_experiment(
        "A1",
        "ablation: starved phase 1 (every packet fails once) — only the "
        "clean-up phase drains the potential",
        ["configuration", "injected", "delivered", "final potential",
         "clean-up hops"],
        rows,
    )
    return with_cleanup, without_cleanup, metrics_with, metrics_without


def test_a1_cleanup_matters(benchmark):
    with_cleanup, without_cleanup, metrics_with, metrics_without = once(
        benchmark, run_experiment
    )
    assert metrics_with.delivered_count() > 0
    assert metrics_without.delivered_count() == 0
    assert without_cleanup.potential.value > with_cleanup.potential.value
    assert without_cleanup.potential.total_cleanup_hops == 0

"""Shared builders for the benchmark suite.

Each ``bench_*`` file reproduces one entry of the experiment registry
(``python -m repro experiments``). The helpers here keep instance construction
consistent across benches so ratios are comparable, and funnel all
printed output through :func:`repro.format_table`.

Conventions:

* every bench prints the rows it regenerates (run with ``-s`` or read
  the captured output in bench_output.txt);
* ``benchmark.pedantic(..., rounds=1, iterations=1)`` wraps the whole
  experiment — wall-clock is reported by pytest-benchmark, the
  scientific result goes to stdout;
* seeds are fixed: every number a bench prints is replayable.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

import repro


def dense_requests(model, n: int, seed: int, links: int = 4) -> List[int]:
    """``n`` single-hop requests concentrated on ``links`` random links."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(model.num_links, size=min(links, model.num_links),
                      replace=False)
    return [int(pool[i % len(pool)]) for i in range(n)]


def sinr_instance(num_nodes: int, seed: int, alpha: float = 3.0,
                  beta: float = 1.0, noise: float = 0.02):
    """A random geometric network with the linear-power model."""
    net = repro.random_sinr_network(num_nodes, rng=seed)
    model = repro.linear_power_model(net, alpha=alpha, beta=beta, noise=noise)
    return net, model


def transformed_decay(m: int, chi_scale: float = 0.05):
    return repro.TransformedAlgorithm(
        repro.DecayScheduler(), m=m, chi_scale=chi_scale
    )


def stability_run(
    model,
    algorithm,
    rate: float,
    frames: int,
    seed: int,
    t_scale: float = 0.001,
    num_generators: int = 6,
    routing=None,
):
    """One protocol + stochastic-injection run; returns (protocol, metrics, verdict)."""
    protocol = repro.DynamicProtocol(
        model, algorithm, rate, t_scale=t_scale, rng=seed
    )
    if routing is None:
        routing = repro.build_routing_table(model.network)
    injection = repro.uniform_pair_injection(
        routing, model, rate, num_generators=num_generators, rng=seed + 1000
    )
    simulation = repro.FrameSimulation(protocol, injection)
    simulation.run(frames)
    verdict = repro.assess_stability(
        simulation.metrics.queue_series,
        load_per_frame=max(1.0, rate * protocol.frame_length),
    )
    return protocol, simulation.metrics, verdict


def print_experiment(experiment_id: str, claim: str, headers, rows) -> None:
    """Uniform experiment banner + table."""
    banner = f"[{experiment_id}] {claim}"
    print("\n" + "=" * len(banner))
    print(banner)
    print("=" * len(banner))
    print(repro.format_table(headers, rows))


def once(benchmark, func: Callable):
    """Run the experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)

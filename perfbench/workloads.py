"""The two workloads of the benchmark of record.

Each workload is one fixed job that a single client submits and waits
for (a closed loop, one job at a time, one process, no process pool).
The two split the program along its two run engines:

* ``serial-resume-markov`` runs on the serial run loop: a 500-link KV
  run interrupted, restored from its checkpoint and finished, then a
  long-frame Markov-injection scenario. Slot loop, checkpoint I/O,
  protocol bookkeeping over a large backlog, full metrics, and the
  per-slot injection fallback.
* ``fleet-batched`` runs 12 small SINR networks through one
  ``BatchedExecutor`` fleet: 8 sparse HM networks on the wave engine
  and 4 decay networks under the Section-3 transform on streaming
  metrics. Wave engine, executor grouping, transform, streaming metrics.

Two workloads, each pairing two engine-specific jobs, rather than one
workload per job: on a shared two-core host whose speed drifts by tens
of percent over seconds to minutes, only runs of about 45 s measure
steadily, and the benchmark's time limit allows that for two workloads.

The protocol and injection seeds are derived from the benchmark's
``--seed``; the program receives only the generated specs and
instances. Each workload's network instances are fixed (the fleet pins
its members' topology seeds), so that runs at different seeds do the
same amount of work: with topologies drawn from ``--seed`` the decay
members' run time varied by a third from seed to seed.

A job is made of *units*: one scenario run, or one fleet member. Each
unit carries a digest of its outputs and a packet-conservation check
(injected = delivered + still in the system); a unit fails if the job
raises, if conservation fails, or if its digest differs from the
reference run's or, at the default seed, from the pinned digest.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Dict, List, NamedTuple

import numpy as np

import repro
import repro.scenario.batched as batched
import repro.scenario.fleet as fleet
import repro.sim.checkpoint as checkpoint
import repro.sim.runner as runner
from repro.core.frames import FrameParameters
from repro.interference.matrix_model import AffectanceThresholdModel
from repro.network.topology import mac_network
from repro.scenario import preset_spec
from repro.staticsched import KvScheduler

DEFAULT_SEED = 0


class Unit(NamedTuple):
    """Outcome of one scenario run or fleet member."""

    name: str
    digest: str
    delivered: int
    conserved: bool


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _cell_unit(name: str, cell, delivered_total: int, in_system: int) -> Unit:
    conserved = (
        cell.delivered == delivered_total
        and cell.injected == delivered_total + in_system
    )
    return Unit(name, _sha(cell), int(cell.delivered), conserved)


class DenseResume:
    """500-link banded affectance, KV, T=1000, interrupted and resumed."""

    name = "dense-kv500-resume"
    links = 500
    frames = 100
    snapshot_interval = 25
    params = FrameParameters(
        frame_length=1000,
        phase1_budget=900,
        cleanup_budget=80,
        measure_budget=30.0,
        epsilon=0.5,
        rate=0.2,
        f_m=1.0,
        m=links,
    )

    def __init__(self, seed: int):
        # The instance itself is deterministic; the seed drives the
        # protocol's and the injection process's generators.
        self.protocol_seed = 17 + 1000 * seed
        self.injection_seed = 1017 + 1000 * seed

    def injections(self, built) -> List:
        return [built[0].injection]

    def build(self):
        """The P1/P4/P6 instance from the library's constructors.

        Returned as a one-element list that the job empties, so that
        the interrupted simulation is freed before the resume, as a
        crashed process's would be.
        """
        n = self.links
        index = np.arange(n)
        distance = np.abs(index[:, None] - index[None, :]).astype(float)
        matrix = 0.15 / (1.0 + distance) ** 0.3
        np.fill_diagonal(matrix, 1.0)
        model = AffectanceThresholdModel(mac_network(n), matrix)
        routing = repro.build_routing_table(model.network)
        injection = repro.uniform_pair_injection(
            routing, model, self.params.rate, num_generators=8,
            rng=self.injection_seed,
        )
        protocol = repro.DynamicProtocol(
            model, KvScheduler(), self.params.rate, params=self.params,
            rng=self.protocol_seed, store=injection.store,
        )
        return [repro.FrameSimulation(protocol, injection)]

    def _unit(self, simulation) -> Unit:
        protocol = simulation.protocol
        ids = protocol.delivered.indices
        delivered = protocol.delivered_total
        in_system = protocol.packets_in_system
        injected = simulation.metrics.injected_total
        conserved = (
            injected == delivered + in_system
            and simulation.injection.store.size == injected
            and simulation.frames_run == self.frames
        )
        digest = _sha(
            ids.astype("<i8").tobytes(),
            (in_system, int(protocol.potential.total_failures)),
        )
        return Unit("resumed", digest, delivered, conserved)

    def reference(self, workdir) -> List[Unit]:
        """The uninterrupted run the resumed run must match bit for bit."""
        simulation = self.build()[0]
        simulation.run(self.frames)
        return [self._unit(simulation)]

    def run(self, built, workdir) -> List[Unit]:
        path = str(workdir / f"{self.name}.ckpt")
        checkpoint.run_with_checkpoints(
            built.pop(), self.frames // 2, path,
            interval=self.snapshot_interval,
        )
        resumed = self.build()[0]
        checkpoint.load_checkpoint_into(resumed, path)
        checkpoint.run_with_checkpoints(
            resumed, self.frames, path, interval=self.snapshot_interval
        )
        return [self._unit(resumed)]


class MarkovSparse:
    """3x3 grid, single-hop, Markov ON/OFF injection, T=1411, 0.1 x certified.

    The job is ``ScenarioSpec.run``'s own two steps — ``build`` (timed
    as set-up) and ``measure_cell`` (timed as the run), with the
    stability verdict.
    """

    frames = 120

    def __init__(self, seed: int):
        self.spec = preset_spec(
            "packet-routing", nodes=9, seed=seed, injection="markov",
            t_scale=1.0, rate=0.1, frames=self.frames,
        )

    def injections(self, built) -> List:
        return [built.injection]

    def build(self):
        return self.spec.build()

    def reference(self, workdir) -> List[Unit]:
        return self.run(self.build(), workdir)

    def run(self, built, workdir) -> List[Unit]:
        spec = self.spec
        cell = runner.measure_cell(
            built.protocol, built.injection, spec.frames, rate=built.rate,
            seed=spec.seed, load_from_injected=spec.load_from_injected,
            metrics=spec.metrics,
        )
        protocol = built.protocol
        return [
            _cell_unit(
                spec.topology, cell, protocol.delivered_total,
                protocol.packets_in_system,
            )
        ]


@contextlib.contextmanager
def _protocol_outcomes():
    """Capture each fleet member's protocol totals as it is summarised.

    ``CellResult`` carries injected and delivered counts but not the
    packets still in the system, which the conservation check needs;
    this records them, keyed by the member's position, at the one call
    every executor path makes per member.
    """
    outcomes: Dict[int, tuple] = {}
    originals = {
        module: module.summarize_cell for module in (runner, batched)
    }

    def capture(original):
        def summarize_cell(protocol, metrics, frames, **kwargs):
            outcomes[kwargs.get("rate_index", 0)] = (
                protocol.delivered_total,
                protocol.packets_in_system,
            )
            return original(protocol, metrics, frames, **kwargs)

        return summarize_cell

    for module, original in originals.items():
        module.summarize_cell = capture(original)
    try:
        yield outcomes
    finally:
        for module, original in originals.items():
            module.summarize_cell = original


class SerialResumeMarkov:
    """The serial run loop: ``DenseResume``, then ``MarkovSparse``."""

    name = "serial-resume-markov"
    #: Builds the job itself calls, traced as scenario builds.
    job_builds = ((DenseResume, "build"),)

    def __init__(self, seed: int):
        self.parts = (DenseResume(seed), MarkovSparse(seed))

    def injections(self, built) -> List:
        return [
            injection
            for part, part_built in zip(self.parts, built)
            for injection in part.injections(part_built)
        ]

    def build(self):
        return [part.build() for part in self.parts]

    def reference(self, workdir) -> List[Unit]:
        return [unit for part in self.parts for unit in part.reference(workdir)]

    def run(self, built, workdir) -> List[Unit]:
        return [
            unit
            for part, part_built in zip(self.parts, built)
            for unit in part.run(part_built, workdir)
        ]


class FleetBatched:
    """``BatchedExecutor`` (non-strict) over one fleet of 12 specs.

    Members 0-7: sinr-linear networks of 10/11/12 nodes, HM chi=0.002
    at absolute rate 0.2, 40 frames. About 1% of requests succeed, so
    the wave engine skips event-free slots.

    Members 8-11: the sinr-linear preset (decay + Section-3 transform)
    on 10 and 14 nodes at 0.6 x certified, 25 frames, streaming
    metrics: thousands of short transformed sub-runs per member.
    """

    name = "fleet-batched"
    job_builds = ()

    def __init__(self, seed: int):
        hm = [
            preset_spec(
                "sinr-linear", seed=1000 * seed + k,
                topology_kwargs={"num_nodes": (10, 11, 12)[k % 3], "seed": k},
                frames=40, scheduler="hm", scheduler_kwargs={"chi": 0.002},
                transform=False, rate_mode="absolute", rate=0.2,
            )
            for k in range(8)
        ]
        decay = [
            preset_spec(
                "sinr-linear", seed=1000 * seed + k,
                topology_kwargs={"num_nodes": nodes, "seed": k},
                frames=25, rate=0.6, metrics="streaming",
            )
            for nodes in (10, 14)
            for k in (0, 1)
        ]
        self._specs = hm + decay

    def injections(self, built) -> List:
        return [member.injection for member in built]

    def build(self):
        """Every member's network, model, routing, protocol and injection.

        The executor builds its members again inside the run, where the
        traced ``scenario.build_s`` shows that share.
        """
        return [spec.build() for spec in self._specs]

    def reference(self, workdir) -> List[Unit]:
        return self.run(self.build(), workdir)

    def run(self, built, workdir) -> List[Unit]:
        with _protocol_outcomes() as outcomes:
            result = fleet.run_scenario_fleet(
                self._specs, batched.BatchedExecutor()
            )
        return [
            _cell_unit(f"member{cell.rate_index}", cell,
                       *outcomes[cell.rate_index])
            for cell in result.records
        ]


WORKLOADS = {cls.name: cls for cls in (SerialResumeMarkov, FleetBatched)}

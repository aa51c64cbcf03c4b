"""The batched executor's bit-identity and fallback contracts.

The wave engine's promise is executor invisibility with teeth: every
record a batched fleet produces must be *bit-identical* to the serial
run of the same spec — same deliveries, same RNG stream consumption,
same summary — across the scheduler x model matrix, under both metrics
modes, for every batch shape (singletons, mixed frame counts, members
that retire early, members with nothing to do). Units that cannot
batch must leave the batched path *loudly* (warning, or error under
``strict``) and still produce the serial result. And a whole campaign
driven through ``BatchedExecutor`` must emit the exact frontier JSON
the serial executor emits.
"""

from __future__ import annotations

import json
import math
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, preset_spec, run_scenario_fleet
from repro.scenario.batched import (
    BATCHABLE_SCHEDULERS,
    BatchedExecutor,
    BatchFallbackWarning,
    run_fleet_batched,
)
from repro.scenario.campaign import campaign_from_data, run_campaign
from repro.scenario.fleet import FleetUnit
from repro.sim.runner import CellResult
from repro.sim.sharding import SerialExecutor, make_executor

# scheduler x model combinations the parity matrix pins. Node budgets
# stay small: bit-identity is a structural property, not a scale one.
MATRIX_SPECS = {
    "kv-linear": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="linear-power",
        scheduler="kv",
        transform=True,
        frames=20,
    ),
    "decay-linear-transformed": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="linear-power",
        scheduler="decay",
        transform=True,
        frames=20,
    ),
    "fkv-conflict": ScenarioSpec(
        topology="grid",
        topology_kwargs={"rows": 3, "cols": 3},
        model="conflict-node",
        scheduler="fkv",
        transform=True,
        frames=20,
    ),
    "hm-linear": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="linear-power",
        scheduler="hm",
        frames=20,
    ),
    "kv-unreliable": ScenarioSpec(
        topology="random",
        topology_kwargs={"num_nodes": 8},
        model="unreliable",
        model_kwargs={"loss_probability": 0.2},
        scheduler="kv",
        transform=True,
        frames=20,
    ),
    "singlehop-routing": ScenarioSpec(
        topology="grid",
        topology_kwargs={"rows": 3, "cols": 3},
        model="packet-routing",
        scheduler="single-hop",
        frames=20,
    ),
}


def records_equal(left, right) -> bool:
    """CellResult equality, NaN-aware on the latency mean."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (
            math.isnan(a.latency)
            and math.isnan(b.latency)
            and a.rate_index == b.rate_index
        ):
            a = CellResult(**{**a.__dict__, "latency": 0.0})
            b = CellResult(**{**b.__dict__, "latency": 0.0})
        if a != b:
            return False
    return True


def _assert_batched_matches_serial(specs, **executor_kwargs):
    serial = run_scenario_fleet(specs, SerialExecutor())
    with warnings.catch_warnings():
        # Eligible specs must batch; any fallback here is a bug.
        warnings.simplefilter("error", BatchFallbackWarning)
        batched = run_scenario_fleet(
            specs, BatchedExecutor(**executor_kwargs)
        )
    assert records_equal(serial.records, batched.records)
    assert serial.summary == batched.summary
    return serial, batched


# ----------------------------------------------------------------------
# The scheduler x model x metrics parity matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metrics", ["full", "streaming"])
@pytest.mark.parametrize("combo", sorted(MATRIX_SPECS))
def test_batched_parity_matrix(combo, metrics):
    base = MATRIX_SPECS[combo]
    specs = [
        base.replace(seed=seed, metrics=metrics) for seed in (0, 1, 2)
    ]
    _assert_batched_matches_serial(specs)


@pytest.mark.parametrize("alias", ["numba", "auto"])
def test_backend_alias_documents_match_numpy(alias):
    """A spec document naming the ``numba`` or ``auto`` alias still
    loads, batches without fallback, and gives the ``numpy`` records."""
    numpy_spec = MATRIX_SPECS["kv-linear"].replace(seed=5, backend="numpy")
    document = json.loads(numpy_spec.to_json())
    document["backend"] = alias
    alias_spec = ScenarioSpec.from_json(json.dumps(document))
    assert alias_spec.backend == alias
    reference = run_scenario_fleet([numpy_spec], SerialExecutor())
    _, batched = _assert_batched_matches_serial([alias_spec])
    assert records_equal(reference.records, batched.records)
    assert reference.summary == batched.summary


def test_every_batchable_scheduler_is_covered():
    covered = {spec.scheduler for spec in MATRIX_SPECS.values()}
    assert covered == set(BATCHABLE_SCHEDULERS)


# ----------------------------------------------------------------------
# Batch shapes: singletons, mixed frames, early retirement, idle peers
# ----------------------------------------------------------------------


def test_batch_of_one():
    _assert_batched_matches_serial(
        [MATRIX_SPECS["hm-linear"].replace(seed=3)]
    )


def test_mixed_frames_batch_together():
    """frames is excluded from the group key: networks that retire
    early must leave the survivors' private RNG streams untouched."""
    base = MATRIX_SPECS["kv-linear"]
    specs = [
        base.replace(seed=seed, frames=frames)
        for seed, frames in ((0, 20), (1, 40), (2, 25))
    ]
    _assert_batched_matches_serial(specs)


def test_idle_member_batches_with_busy_peers():
    """A network whose injection produces (next to) nothing — its
    sub-runs are born finished — must coexist with busy group peers."""
    base = MATRIX_SPECS["hm-linear"]
    specs = [
        base.replace(seed=0, rate_mode="absolute", rate=1e-6),
        base.replace(seed=1, rate_mode="absolute", rate=0.5),
    ]
    _assert_batched_matches_serial(specs)


def test_padding_ratio_splits_groups(monkeypatch):
    """ratio=1 forces one batch per distinct size; parity must hold
    through the split, and the split must actually happen."""
    import repro.scenario.batched as batched_mod

    sizes: list = []
    real = batched_mod.run_batched_streams

    def spy(streams):
        sizes.append(len(streams))
        return real(streams)

    monkeypatch.setattr(batched_mod, "run_batched_streams", spy)
    base = MATRIX_SPECS["kv-linear"]
    specs = [
        base.replace(seed=0),
        base.replace(seed=1, topology_kwargs={"num_nodes": 14}),
    ]
    serial = run_scenario_fleet(specs, SerialExecutor())
    batched = run_scenario_fleet(
        specs, BatchedExecutor(padding_ratio=1.0)
    )
    assert records_equal(serial.records, batched.records)
    assert len(sizes) >= 2 and all(size >= 1 for size in sizes)


def test_large_networks_stay_serial_by_design():
    """Above ``large_links`` nothing batches — and nothing warns:
    that is a sizing decision, not a fallback."""
    specs = [
        MATRIX_SPECS["kv-linear"].replace(seed=seed) for seed in (0, 1)
    ]
    serial = run_scenario_fleet(specs, SerialExecutor())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = run_scenario_fleet(
            specs, BatchedExecutor(large_links=1)
        )
    assert records_equal(serial.records, batched.records)


# ----------------------------------------------------------------------
# Loud fallbacks
# ----------------------------------------------------------------------


def test_unbatchable_scheduler_warns_and_matches_serial():
    specs = [
        ScenarioSpec(
            topology="mac",
            topology_kwargs={"num_stations": 4},
            model="mac",
            scheduler="round-robin",
            frames=20,
            seed=seed,
        )
        for seed in (0, 1)
    ]
    serial = run_scenario_fleet(specs, SerialExecutor())
    with pytest.warns(BatchFallbackWarning, match="no fused policy"):
        batched = run_scenario_fleet(specs, BatchedExecutor())
    assert records_equal(serial.records, batched.records)


def test_scalar_backend_warns_and_matches_serial():
    specs = [
        MATRIX_SPECS["kv-linear"].replace(seed=seed, backend="scalar")
        for seed in (0, 1)
    ]
    serial = run_scenario_fleet(specs, SerialExecutor())
    with pytest.warns(BatchFallbackWarning, match="no fused run loop"):
        batched = run_scenario_fleet(specs, BatchedExecutor())
    assert records_equal(serial.records, batched.records)


def test_checkpointed_unit_warns_and_matches(tmp_path):
    spec = MATRIX_SPECS["singlehop-routing"].replace(seed=4)
    plain = FleetUnit(spec=spec, index=0)
    unit = plain.with_checkpoint(str(tmp_path / "unit.ckpt"))
    with pytest.warns(BatchFallbackWarning, match="checkpointed"):
        got = BatchedExecutor().map([unit])
    assert records_equal([plain.run()], got)


def _mixed_fleet_specs():
    """4 units, 3 ineligible for 2 distinct reasons, 1 eligible."""
    unbatchable = ScenarioSpec(
        topology="mac",
        topology_kwargs={"num_stations": 4},
        model="mac",
        scheduler="round-robin",
        frames=20,
    )
    scalar = MATRIX_SPECS["kv-linear"].replace(backend="scalar")
    return [
        unbatchable.replace(seed=0),
        scalar.replace(seed=1),
        scalar.replace(seed=2),
        MATRIX_SPECS["kv-linear"].replace(seed=3),
    ]


def test_mixed_fleet_emits_one_aggregated_warning():
    """A fleet with several distinct fallbacks warns ONCE, with every
    reason and its count in the message — not once per unit."""
    specs = _mixed_fleet_specs()
    serial = run_scenario_fleet(specs, SerialExecutor())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batched = run_scenario_fleet(specs, BatchedExecutor())
    fallback = [
        w for w in caught if issubclass(w.category, BatchFallbackWarning)
    ]
    assert len(fallback) == 1, (
        f"expected one aggregated warning, got {len(fallback)}"
    )
    message = str(fallback[0].message)
    assert "3 of 4" in message
    assert "no fused policy" in message and "[x1]" in message
    assert "no fused run loop" in message and "[x2]" in message
    assert records_equal(serial.records, batched.records)


def test_mixed_fleet_strict_still_raises_per_unit():
    """strict keeps its precise per-unit contract: the first
    ineligible position raises immediately, reason attached."""
    with pytest.raises(ConfigurationError,
                       match=r"fleet unit 0 cannot batch"):
        run_scenario_fleet(
            _mixed_fleet_specs(), BatchedExecutor(strict=True)
        )


def test_strict_mode_raises_instead_of_warning():
    spec = ScenarioSpec(
        topology="mac",
        topology_kwargs={"num_stations": 4},
        model="mac",
        scheduler="round-robin",
        frames=20,
    )
    with pytest.raises(ConfigurationError, match="cannot batch"):
        run_fleet_batched([FleetUnit(spec=spec, index=0)], strict=True)


def test_parameter_validation():
    with pytest.raises(ConfigurationError, match="padding_ratio"):
        run_fleet_batched([], padding_ratio=0.5)
    with pytest.raises(ConfigurationError, match="large_links"):
        run_fleet_batched([], large_links=0)


def test_make_executor_knows_batched():
    executor = make_executor("batched", workers=3)
    assert isinstance(executor, BatchedExecutor)
    with pytest.raises(ConfigurationError):
        make_executor("no-such-executor")


# ----------------------------------------------------------------------
# Preset fleets and the campaign frontier
# ----------------------------------------------------------------------


def test_preset_fleet_batches_bit_identically():
    specs = [
        preset_spec("sinr-linear", nodes=8, seed=seed, frames=20,
                    scheduler="hm")
        for seed in range(4)
    ]
    _assert_batched_matches_serial(specs)


CAMPAIGN_DATA = {
    "name": "batched-frontier",
    "axes": {
        "topology": [{"name": "mac", "kwargs": {"num_stations": 4}}],
        "model": ["mac"],
        "scheduler": ["single-hop", {"name": "decay", "transform": True}],
        "injection": ["uniform-pairs"],
    },
    "seeds": [0, 1],
    "frames": 20,
    "search": {"rate_low": 0.5, "rate_high": 2.0, "tolerance": 0.5},
}


def test_campaign_frontier_bit_identical_batched():
    """The PR 8 frontier document must be byte-for-byte identical when
    every probe wave runs through the wave engine — with zero
    fallbacks."""
    spec = campaign_from_data(CAMPAIGN_DATA)
    serial = run_campaign(spec, executor=SerialExecutor()).to_json()
    with warnings.catch_warnings():
        warnings.simplefilter("error", BatchFallbackWarning)
        batched = run_campaign(spec, executor=BatchedExecutor()).to_json()
    assert serial == batched

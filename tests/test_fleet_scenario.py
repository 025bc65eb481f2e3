"""Fleet rollout at swarm scale: sharded digests, grace tripwire, counters,
and the packet-level fleet as the oracle of the swarm's migrations."""

from dataclasses import replace

import pytest

from repro.faults import FaultPlan, GatewayRestart, LinkLoss
from repro.fleet.swarm import (
    DELIVERED_NAME,
    MIGRATIONS_NAME,
    PACKETS_NAME,
    REMAPS_NAME,
    STALE_ADMITTED_NAME,
    STALE_REJECTED_NAME,
    FleetSwarmParams,
    run_fleet_swarm,
)
from repro.experiments.fleet_rollout import (
    ORACLE_CLIENTS,
    compare_fleets,
    fleet_rollout_spec,
    rolling_restart_plan,
    run_fleet_rollout,
    swarm_params_from_spec,
)
from repro.sim import SimulationError
from repro.sim.parallel import fork_available


def _smoke_params(n_gateways=2):
    """Small-but-real rollout: restarts + grace deadline inside 20 ms."""
    return FleetSwarmParams(
        n_clients=400,
        n_gateways=n_gateways,
        horizon_s=0.02,
        warmup_s=0.002,
        announce_at_s=0.002,
        grace_s=0.008,
        adopt_base_s=0.001,
        stale_every=40,
        fault_plan=rolling_restart_plan(
            n_gateways, first_at_s=0.005, outage_s=0.003, gap_s=0.005
        ),
    )


def test_params_validation():
    with pytest.raises(SimulationError):
        FleetSwarmParams(n_clients=0)
    with pytest.raises(SimulationError):
        # non-GatewayRestart events don't belong in the flow-level model
        FleetSwarmParams(fault_plan=FaultPlan("x", [LinkLoss(at=0.0, link="l", rate=0.5)]))
    with pytest.raises(SimulationError):
        # restart target outside the fleet
        FleetSwarmParams(n_gateways=2, fault_plan=rolling_restart_plan(4))


def test_rolling_restart_smoke_digest_matches_serial():
    params = _smoke_params()
    serial = run_fleet_swarm(params, n_shards=3, mode="serial")
    inline = run_fleet_swarm(params, n_shards=3, mode="inline")
    assert inline.trace_digest() == serial.trace_digest()
    # the restarts migrated every client away and back: two gateways,
    # each drained once...
    assert serial.counter(MIGRATIONS_NAME) == 2 * 400
    assert serial.counter(REMAPS_NAME) == serial.counter(MIGRATIONS_NAME)
    # ...stragglers were rejected after the grace deadline...
    assert serial.counter(STALE_REJECTED_NAME) > 0
    # ...and the §III-E tripwire never fired
    assert serial.counter(STALE_ADMITTED_NAME) == 0
    assert inline.counter(STALE_ADMITTED_NAME) == 0


@pytest.mark.skipif(not fork_available(), reason="fork runner unavailable")
def test_rolling_restart_fork_digest_matches_serial():
    params = _smoke_params()
    serial = run_fleet_swarm(params, n_shards=3, mode="serial")
    fork = run_fleet_swarm(params, n_shards=3, mode="fork")
    assert fork.trace_digest() == serial.trace_digest()
    assert fork.counter(STALE_ADMITTED_NAME) == 0


def test_fleet_rollout_experiment_passes_acceptance():
    spec = fleet_rollout_spec(n_clients=600, gateways=4)
    params = swarm_params_from_spec(spec, horizon_s=0.05)
    result = run_fleet_rollout(spec=spec, n_shards=3, modes=("inline",), params=params)
    meta = result.metadata
    assert meta["n_gateways"] == 4
    assert all(meta["digest_matches_serial"].values())
    assert meta["stale_admitted_after_grace"] == 0
    # every client drained once and re-homed once
    assert meta["migrations"] == meta["remaps"] == 2 * 600
    assert "sessions_resumed" not in meta
    assert meta["stale_rejected"] > 0
    # the spec (fault plan included) is the single declarative source
    assert meta["fault_plan"]["name"] == "rolling-gateway-restart"
    assert result.series["admitted goodput"]["inline"] > 0
    # the packet-level oracle ran the same plan and agreed
    oracle = meta["oracle"]
    assert oracle["clients"] == ORACLE_CLIENTS
    assert oracle["packet"] == oracle["swarm"]
    assert oracle["swarm"]["migrations"] == 2 * ORACLE_CLIENTS
    assert oracle["all_home"]
    text = result.to_text()
    assert "migrations / remaps: 1200 / 1200" in text
    assert (
        "remaps 32 / 32, migrations 32 / 32, stale_admitted_after_grace 0 / 0; "
        "every client home: True"
    ) in text


def _spec(clients, gateways, plan):
    return replace(fleet_rollout_spec(n_clients=clients, gateways=gateways), fault_plan=plan)


#: plan name -> (spec, migrations both fleets must count)
ORACLE_PLANS = {
    # the headline rolling plan: 4 ms windows, 8 ms apart
    "rolling": (_spec(16, 4, rolling_restart_plan(4)), 32),
    # two gateways down together for 12 ms: a restore moves the clients
    # whose home is still down onto the gateway just restored
    "pair_together": (
        _spec(
            16,
            4,
            FaultPlan(
                "pair",
                [
                    GatewayRestart(at=0.012, gateway=0, outage_s=0.012),
                    GatewayRestart(at=0.012, gateway=1, outage_s=0.012),
                ],
            ),
        ),
        15,
    ),
    # both gateways of two down for 5 ms: nothing moves while every
    # gateway is down
    "all_down": (
        _spec(
            8,
            2,
            FaultPlan(
                "dark",
                [
                    GatewayRestart(at=0.010, gateway=0, outage_s=0.015),
                    GatewayRestart(at=0.015, gateway=1, outage_s=0.005),
                ],
            ),
        ),
        4,
    ),
    # gap == outage: the next drain comes before the previous restore
    "gap_equals_outage": (_spec(16, 4, rolling_restart_plan(4, outage_s=0.004, gap_s=0.004)), 40),
}


@pytest.mark.parametrize("plan", sorted(ORACLE_PLANS))
def test_fleets_agree_with_packet_level_oracle(plan):
    spec, migrations = ORACLE_PLANS[plan]
    row = compare_fleets(spec, swarm_params_from_spec(spec))
    assert row["packet"] == row["swarm"]
    assert row["swarm"]["remaps"] == row["swarm"]["migrations"] == migrations
    assert row["all_home"]
    assert row["packet"]["stale_admitted_after_grace"] == 0


def test_swarm_drops_packets_while_every_gateway_is_down():
    spec, _ = ORACLE_PLANS["all_down"]
    params = swarm_params_from_spec(spec, stale_every=0)
    dark = run_fleet_swarm(params, n_shards=1, mode="serial")
    lit = run_fleet_swarm(replace(params, fault_plan=None), n_shards=1, mode="serial")
    assert lit.counter(DELIVERED_NAME) == lit.counter(PACKETS_NAME)
    # 5 ms of the 8 clients' 2 Mbit/s in 1,500 B packets: ~6.7 packets
    lost = lit.counter(DELIVERED_NAME) - dark.counter(DELIVERED_NAME)
    assert 6 <= lost <= 7

"""repro.fleet: DeploymentSpec round trips, balancers, fleet deployments."""

import math

import pytest

from repro.core.scenarios import SETUPS, ClientConnectError
from repro.faults import FaultPlan, GatewayRestart, trace_digest
from repro.fleet import (
    BALANCER_POLICIES,
    DeploymentSpec,
    DeploymentSpecError,
    HashRing,
    make_balancer,
)
from repro.fleet import spec as spec_module
from repro.fleet.balancer import BalancerError


# ----------------------------------------------------------------------
# DeploymentSpec: validation + plain-data round trip
# ----------------------------------------------------------------------
def test_spec_defaults_validate():
    spec = DeploymentSpec()
    assert spec.gateways == 1
    assert spec.balancer in BALANCER_POLICIES


def test_spec_rejects_bad_fields():
    with pytest.raises(DeploymentSpecError):
        DeploymentSpec(setup="mystery")
    with pytest.raises(DeploymentSpecError):
        DeploymentSpec(scenario="casino")
    with pytest.raises(DeploymentSpecError):
        DeploymentSpec(gateways=0)
    with pytest.raises(DeploymentSpecError):
        DeploymentSpec(gateways=251)
    with pytest.raises(DeploymentSpecError):
        DeploymentSpec(balancer="coin_flip")
    with pytest.raises(DeploymentSpecError):
        DeploymentSpec(seed="")


def test_spec_setups_match_scenarios():
    # the spec module keeps its own copy of the setup table to stay
    # import-light; it must never drift from the authoritative one
    assert tuple(sorted(spec_module.SETUPS)) == tuple(sorted(SETUPS))


def test_spec_json_round_trip_unknown_fields_rejected():
    spec = DeploymentSpec(clients=3, gateways=2, seed="rt")
    clone = DeploymentSpec.from_json(spec.to_json())
    assert clone == spec
    payload = spec.to_dict()
    payload["warp_drive"] = True
    with pytest.raises(DeploymentSpecError):
        DeploymentSpec.from_dict(payload)


def test_spec_round_trips_embedded_fault_plan():
    plan = FaultPlan("rolling", [GatewayRestart(at=1.0, gateway=1, outage_s=0.5)])
    spec = DeploymentSpec(gateways=2, fault_plan=plan)
    clone = DeploymentSpec.from_json(spec.to_json())
    assert clone.fault_plan == plan
    assert clone == spec


def test_spec_json_round_trip_builds_identical_world():
    spec = DeploymentSpec(clients=2, telemetry_recording=True, seed="rt-digest")
    clone = DeploymentSpec.from_json(spec.to_json())

    def digest(s):
        world = s.build()
        world.connect_all()
        world.sim.run(until=12.0)
        return trace_digest(world.sim.telemetry)

    assert digest(spec) == digest(clone)


# ----------------------------------------------------------------------
# balancers
# ----------------------------------------------------------------------
def test_hash_ring_growth_remaps_bounded():
    # consistent hashing's contract: growing the fleet N -> N+1 moves at
    # most ~K/(N+1) keys, and every moved key lands on the new gateway
    n_keys, n_gateways = 200, 4
    keys = [f"client-{index}" for index in range(n_keys)]
    before = HashRing(n_gateways)
    after = HashRing(n_gateways + 1)
    moved = [key for key in keys if before.pick(key) != after.pick(key)]
    assert len(moved) <= math.ceil(n_keys / n_gateways)
    assert all(after.pick(key) == n_gateways for key in moved)


def test_hash_ring_fallback_skips_down_gateways():
    ring = HashRing(3)
    for index in range(50):
        key = f"client-{index}"
        home = ring.pick(key)
        target = ring.fallback(key, {home})
        assert target != home
        assert 0 <= target < 3


@pytest.mark.parametrize("policy", BALANCER_POLICIES)
def test_moves_is_the_placement_rule(policy):
    balancer = make_balancer(policy, 3)
    homes = [balancer.pick(f"client-{index}") for index in range(12)]
    # all up: nobody away from home moves anywhere but home
    assert balancer.moves(homes, homes, set()) == []
    away = [(home + 1) % 3 for home in homes]
    assert balancer.moves(homes, away, set()) == list(enumerate(homes))
    # one down: exactly its clients move, to the fallback around it
    down = {homes[0]}
    moved = balancer.moves(homes, homes, down)
    assert [client for client, _ in moved] == [
        index for index, home in enumerate(homes) if home in down
    ]
    for client, place in moved:
        assert place == balancer.fallback(f"client-{client}", down)
        assert place not in down
    # every gateway down: no client moves
    assert balancer.moves(homes, away, {0, 1, 2}) == []


def test_base_fallback_walks_forward_from_home():
    balancer = make_balancer("round_robin", 4)
    home = balancer.pick("client-0")
    assert balancer.fallback("client-0", {home}) == (home + 1) % 4
    assert balancer.fallback("client-0", {home, (home + 1) % 4}) == (home + 2) % 4
    with pytest.raises(BalancerError):
        balancer.fallback("client-0", {0, 1, 2, 3})


def test_round_robin_balancer_is_flow_sticky():
    balancer = make_balancer("round_robin", 3)
    first = [balancer.pick(f"client-{index}") for index in range(6)]
    again = [balancer.pick(f"client-{index}") for index in range(6)]
    assert first == again  # known flows stick
    assert set(first) == {0, 1, 2}  # fresh flows rotate over the fleet


# ----------------------------------------------------------------------
# fleet deployments: rollout, migration, rolling restart
# ----------------------------------------------------------------------
def _counters(world):
    return world.sim.telemetry.snapshot().get("counters", {})


def test_single_gateway_spec_matches_legacy_shape():
    world = DeploymentSpec(clients=2, seed="shape").build()
    assert world.n_gateways == 1
    assert world.server is world.gateways[0]
    assert world.server_host is world.gateway_hosts[0]
    assert world.server_host.name == "vpn-gw"
    world.connect_all()
    assert all(client.connected_event.triggered for client in world.clients)


def test_connect_all_names_every_failed_client():
    world = DeploymentSpec(clients=2, seed="fail").build()
    world.server.begin_outage()
    with pytest.raises(ClientConnectError) as excinfo:
        world.connect_all(until=3.0)
    assert sorted(excinfo.value.failed) == ["client-0", "client-1"]
    assert excinfo.value.deadline == 3.0
    assert "client-0" in str(excinfo.value)


def test_fleet_announce_config_reaches_every_gateway():
    world = DeploymentSpec(clients=2, gateways=3, seed="ann").build()
    world.connect_all()
    world.announce_config(2, grace_period_s=5.0)
    assert [gateway.current_config_version for gateway in world.gateways] == [2, 2, 2]


def test_migrate_client_resumes_session_on_target_gateway():
    world = DeploymentSpec(clients=2, gateways=2, ping_interval=0.2, seed="mig").build()
    world.connect_all()
    source = world.assignment[0]
    target = 1 - source
    world.migrate_client(0, target)
    world.sim.run(until=world.sim.now + 5.0)
    counters = _counters(world)
    assert world.assignment[0] == target
    assert world.gateways[target].sessions_resumed == 1
    assert counters.get("fleet.balancer.migrations") == 1
    assert counters.get("fleet.gateway.sessions_resumed") == 1
    # the migrated client's tunnel works against its new gateway
    assert world.clients[0].connected_event.triggered


def test_rolling_gateway_restart_drains_and_rehomes():
    plan = FaultPlan(
        "rolling",
        [
            GatewayRestart(at=0.5, gateway=0, outage_s=2.0),
            GatewayRestart(at=5.0, gateway=1, outage_s=2.0),
        ],
    )
    spec = DeploymentSpec(
        clients=4, gateways=3, ping_interval=0.2, seed="roll", fault_plan=plan
    )
    world = spec.build()
    world.connect_all()
    home = list(world.assignment)
    world.arm_faults()
    world.sim.run(until=world.sim.now + 12.0)
    counters = _counters(world)
    # every drained client migrated away and back to its ring home
    assert world.assignment == home
    assert counters.get("fleet.balancer.remaps", 0) > 0
    assert counters.get("fleet.balancer.migrations", 0) > 0
    assert counters.get("fleet.gateway.sessions_resumed", 0) > 0
    for gateway in world.gateways:
        assert gateway.stale_admitted_after_grace == 0

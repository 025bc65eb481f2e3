"""repro.fleet: DeploymentSpec round trips, balancers, fleet deployments."""

import math

import pytest

from repro import telemetry
from repro.core.scenarios import SETUPS, ClientConnectError, use_case_configs
from repro.experiments.fleet_rollout import rolling_restart_plan
from repro.faults import FaultPlan, GatewayRestart, trace_digest
from repro.fleet import DeploymentSpec, DeploymentSpecError, HashRing
from repro.fleet import spec as spec_module
from repro.fleet.balancer import BalancerError
from repro.netsim.traffic import UdpSink, UdpTrafficSource
from repro.vpn.protocol import OP_PING, VpnPacket


# ----------------------------------------------------------------------
# DeploymentSpec: validation + plain-data round trip
# ----------------------------------------------------------------------
def test_spec_defaults_validate():
    spec = DeploymentSpec()
    assert spec.gateways == 1


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
    spec = DeploymentSpec(clients=2, seed="rt-digest")
    clone = DeploymentSpec.from_json(spec.to_json())

    def digest(s):
        with telemetry.session(recording=True):
            world = s.build()
        world.connect_all()
        world.sim.run(until=12.0)
        return trace_digest(world.sim.telemetry)

    assert digest(spec) == digest(clone)


# ----------------------------------------------------------------------
# the hash ring
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
    with pytest.raises(BalancerError):
        ring.fallback("client-0", {0, 1, 2})


def test_moves_is_the_placement_rule():
    ring = HashRing(3)
    homes = [ring.pick(f"client-{index}") for index in range(12)]
    # all up: nobody away from home moves anywhere but home
    assert ring.moves(homes, homes, set()) == []
    away = [(home + 1) % 3 for home in homes]
    assert ring.moves(homes, away, set()) == list(enumerate(homes))
    # one down: exactly its clients move, to the fallback around it
    down = {homes[0]}
    moved = ring.moves(homes, homes, down)
    assert [client for client, _ in moved] == [
        index for index, home in enumerate(homes) if home in down
    ]
    for client, place in moved:
        assert place == ring.fallback(f"client-{client}", down)
        assert place not in down
    # every gateway down: no client moves
    assert ring.moves(homes, away, {0, 1, 2}) == []


# ----------------------------------------------------------------------
# fleet deployments: rollout, migration, rolling restart
# ----------------------------------------------------------------------
def _counters(world):
    return world.sim.telemetry.snapshot().get("counters", {})


def _sessions_of(world, client_index):
    """The gateway index of every session client ``client_index`` holds,
    fleet-wide (sessions are keyed by the client's physical address)."""
    outer = world.client_hosts[client_index].stack.interfaces[0].address
    return [
        index
        for index, gateway in enumerate(world.gateways)
        for addr, _port in gateway.sessions_by_peer
        if addr == outer
    ]


def _publish_firewall(world, grace_period_s):
    """Roll version 2, the FW use case, out to every gateway."""
    config, rules = use_case_configs("FW", server_side=False)
    bundle = world.publisher.build_bundle(2, config, rules, encrypt=True)
    world.publisher.publish(bundle, world.config_server, world, grace_period_s)


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
    # a migration is an OpenVPN failover: the source closes the session
    # and the client, enclave and all, re-handshakes with the target as
    # it is retargeted
    world = DeploymentSpec(clients=2, gateways=2, ping_interval=0.2, seed="mig").build()
    world.connect_all()
    client = world.clients[0]
    endbox = client.endbox
    source = world.assignment[0]
    target = 1 - source
    world.migrate_client(0, target)
    assert _sessions_of(world, 0) == []
    # a datagram still in flight from the source must not pass for the
    # target's liveness and put the re-handshake off
    outer = world.client_hosts[0].stack.interfaces[0].address
    stray = VpnPacket(OP_PING, 0, 0, b"").serialize()
    world.gateways[source].sock.sendto(stray, outer, client.sock.port)
    world.sim.run(until=world.sim.now + 2 * world.spec.ping_interval)
    assert _sessions_of(world, 0) == [target]
    world.sim.run(until=world.sim.now + 5.0)
    assert world.assignment[0] == target
    assert _sessions_of(world, 0) == [target]
    assert client.endbox is endbox
    assert client.reconnects == 1
    assert _counters(world).get("fleet.balancer.migrations") == 1


def test_migration_keeps_enclave_version_past_grace_deadline():
    # §III-E across a migration: version 2, the firewall (it denies port
    # 445), reaches the client; the config server goes down and the
    # client migrates.  Past the grace deadline its traffic to port 445
    # must still meet that firewall, on the target gateway.
    world = DeploymentSpec(clients=1, gateways=2, ping_interval=0.2, seed="bypass").build()
    world.connect_all()
    client = world.clients[0]
    endbox = client.endbox
    target = 1 - world.assignment[0]
    announced = world.sim.now
    _publish_firewall(world, grace_period_s=2.0)
    world.sim.run(until=announced + 0.4)
    assert client.config_version == 2
    world.config_server.set_down(True)
    world.migrate_client(0, target)
    world.sim.run(until=announced + 2.5)
    sinks, sources = [], []
    for port in (445, 4242):
        sinks.append(UdpSink(world.internal, port=port))
        sources.append(
            UdpTrafficSource(
                client.host, world.internal.address, port, rate_bps=4e5, packet_bytes=400
            )
        )
        sources[-1].start()
    world.sim.run(until=announced + 4.0)
    for traffic in sources:
        traffic.stop()
    blocked, allowed = sinks
    assert blocked.packets == 0
    assert allowed.packets > 0
    assert client.endbox is endbox
    assert client.config_version == 2
    assert _sessions_of(world, 0) == [target]
    [session] = world.gateways[target].sessions_by_peer.values()
    assert session.client_version == 2
    assert world.gateways[target].stale_admitted_after_grace == 0


def _eight_fw_clients_on_four_gateways():
    """A connected 8-client FW world on 4 gateways (ping interval 0.2 s)."""
    spec = DeploymentSpec(
        use_case="FW", clients=8, gateways=4, ping_interval=0.2, seed="rollout-roll"
    )
    world = spec.build()
    world.connect_all()
    return world


def _restart_under_traffic(world, plan):
    """Arm ``plan`` while every client sends 400 B datagrams at 0.4 Mbit/s
    to the internal host, and run 3 s past its last restart; the sink."""
    sink = UdpSink(world.internal, port=4242)
    sources = [
        UdpTrafficSource(host, world.internal.address, 4242, rate_bps=4e5, packet_bytes=400)
        for host in world.client_hosts
    ]
    for traffic in sources:
        traffic.start()
    world.arm_faults(plan)
    plan_s = max(event.at + event.outage_s for event in plan)
    world.sim.run(until=world.sim.now + plan_s + 3.0)
    for traffic in sources:
        traffic.stop()
    return sink


def test_rollout_then_rolling_restart_refuses_no_handshake():
    # a version-2 rollout reaches every client and its grace runs out;
    # then every gateway restarts in turn (4 ms windows).  The migrated
    # clients re-handshake on the version their enclaves run, so no
    # gateway refuses them and no client fetches its configuration again.
    world = _eight_fw_clients_on_four_gateways()
    announced = world.sim.now
    _publish_firewall(world, grace_period_s=0.5)
    world.sim.run(until=announced + 1.0)
    assert [client.config_version for client in world.clients] == [2] * 8
    fetched = [len(client.update_timings) for client in world.clients]
    sink = _restart_under_traffic(world, rolling_restart_plan(4))
    assert _counters(world).get("fleet.balancer.migrations") == 16
    assert [gateway.admissions_denied for gateway in world.gateways] == [0] * 4
    assert [len(client.update_timings) for client in world.clients] == fetched
    assert [client.config_version for client in world.clients] == [2] * 8
    assert world.assignment == world.homes
    for index in range(8):
        assert _sessions_of(world, index) == [world.homes[index]]
    assert sink.packets > 0


@pytest.mark.parametrize("outage_s", [0.0002, 0.0005, 0.001, 0.004])
def test_migration_rehandshakes_at_once(outage_s):
    # a migrated client re-handshakes with its target as it is
    # retargeted, not at its next dead-peer-detection tick: the gateways
    # refuse at most one datagram per migration sealed under keys they
    # do not hold.  A retarget that lands while the away handshake is in
    # flight (outages shorter than a handshake) starts a fresh one home.
    world = _eight_fw_clients_on_four_gateways()
    sink = _restart_under_traffic(world, rolling_restart_plan(4, outage_s=outage_s))
    migrations = _counters(world).get("fleet.balancer.migrations")
    assert migrations == 16
    assert sum(gateway.packets_rejected for gateway in world.gateways) <= migrations
    assert sink.packets > 0
    assert world.assignment == world.homes
    for index in range(8):
        assert _sessions_of(world, index) == [world.homes[index]]


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
    # ...and holds exactly one session fleet-wide, on that home
    for index in range(len(world.clients)):
        assert _sessions_of(world, index) == [home[index]]
    for gateway in world.gateways:
        assert gateway.stale_admitted_after_grace == 0

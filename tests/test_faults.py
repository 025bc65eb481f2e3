"""repro.faults: plan parsing, the injector, and chaos recovery paths."""

import pytest

from repro import telemetry
from repro.fleet import DeploymentSpec
from repro.core.scenarios import run_chaos_rollout
from repro.faults import (
    ClientCrash,
    ConfigServerOutage,
    EpcPressure,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    LinkLoss,
    LinkPartition,
    ServerRestart,
    event_from_dict,
    trace_digest,
)
from repro.netsim import StarTopology
from repro.netsim.host import class_a_host, class_b_host
from repro.netsim.traffic import UdpSink, UdpTrafficSource
from repro.sim import Simulator


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def test_plan_sorts_events_stably():
    first = ServerRestart(at=1.0, outage_s=0.5)
    second = LinkLoss(at=1.0, link="a", rate=0.1)
    early = LinkPartition(at=0.5, link="a", duration=0.1)
    plan = FaultPlan("p", [first, second, early])
    assert plan.events == (early, first, second)  # ties keep given order
    assert len(plan) == 3


def test_plan_round_trips_through_json():
    plan = FaultPlan(
        "round-trip",
        [
            LinkLoss(at=0.5, link="client-0", rate=0.2, duration=3.0),
            LinkPartition(at=1.0, link="client-1", duration=2.0),
            LatencySpike(at=1.5, link="client-0", latency_s=0.05, duration=1.0),
            ServerRestart(at=2.0, outage_s=1.0),
            ClientCrash(at=3.0, client=1, outage_s=4.0),
            ConfigServerOutage(at=4.0, duration=2.0),
            EpcPressure(at=5.0, nbytes=1 << 20, duration=1.0, client=0),
        ],
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_event_from_dict_rejects_unknown_kind_and_fields():
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        event_from_dict({"kind": "meteor_strike", "at": 0.0})
    with pytest.raises(FaultPlanError, match="unknown fields"):
        event_from_dict({"kind": "server_restart", "at": 0.0, "outage_s": 1.0, "blast": 9})


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinkLoss(at=-1.0, link="a", rate=0.1),
        lambda: LinkLoss(at=0.0, link="", rate=0.1),
        lambda: LinkLoss(at=0.0, link="a", rate=1.5),
        lambda: LinkPartition(at=0.0, link="a", duration=0.0),
        lambda: LatencySpike(at=0.0, link="a", latency_s=-1.0, duration=1.0),
        lambda: ServerRestart(at=0.0, outage_s=-2.0),
        lambda: ClientCrash(at=0.0, client=-1, outage_s=1.0),
        lambda: ConfigServerOutage(at=0.0, duration=0.0),
        lambda: EpcPressure(at=0.0, nbytes=0, duration=1.0),
    ],
)
def test_malformed_events_rejected(build):
    with pytest.raises(FaultPlanError):
        build()


def test_plan_requires_name_and_events():
    with pytest.raises(FaultPlanError, match="name"):
        FaultPlan("", [])
    with pytest.raises(FaultPlanError, match="not a FaultEvent"):
        FaultPlan("p", ["server_restart"])


# ----------------------------------------------------------------------
# the injector on a bare netsim world
# ----------------------------------------------------------------------
def small_world():
    sim = Simulator()
    topo = StarTopology(sim)
    a = class_a_host(sim, "a")
    b = class_b_host(sim, "b")
    topo.attach(a)
    topo.attach(b)
    return sim, topo, a, b


def test_arm_validates_targets_up_front():
    sim, topo, _a, _b = small_world()
    injector = FaultInjector(sim, topo=topo)
    with pytest.raises(FaultInjectionError, match="VPN server"):
        injector.arm(FaultPlan("p", [ServerRestart(at=0.0, outage_s=1.0)]))
    with pytest.raises(FaultInjectionError, match="no link"):
        injector.arm(FaultPlan("p", [LinkLoss(at=0.0, link="nonesuch", rate=0.1)]))
    with pytest.raises(FaultInjectionError, match="no client"):
        injector.arm(FaultPlan("p", [ClientCrash(at=0.0, client=0, outage_s=1.0)]))


def test_link_loss_window_applied_and_restored():
    sim, topo, a, _b = small_world()
    link = a.stack.interfaces[0].link
    injector = FaultInjector(sim, topo=topo)
    injector.arm(FaultPlan("p", [LinkLoss(at=0.2, link="a", rate=0.4, duration=0.3)]))
    sim.run(until=0.3)
    assert link.loss_rate == 0.4
    sim.run(until=1.0)
    assert link.loss_rate == 0.0
    assert injector.events_applied == 1
    assert injector.timeline[0]["kind"] == "link_loss"
    assert injector.timeline[0]["applied_at"] == pytest.approx(0.2)


def test_partition_blocks_delivery_then_heals():
    sim, topo, a, b = small_world()
    sink = UdpSink(b, 5000)
    UdpTrafficSource(a, b.address, 5000, rate_bps=8e5, packet_bytes=100).start()
    FaultInjector(sim, topo=topo).arm(
        FaultPlan("p", [LinkPartition(at=0.5, link="a", duration=0.5)])
    )
    sim.run(until=0.5)
    before = sink.packets
    assert before > 0
    sim.run(until=0.9)
    assert sink.packets == before  # nothing crosses a downed link
    assert a.stack.interfaces[0].link.down
    sim.run(until=1.5)
    assert sink.packets > before  # healed
    assert not a.stack.interfaces[0].link.down


def test_latency_spike_applied_and_restored():
    sim, topo, a, _b = small_world()
    link = a.stack.interfaces[0].link
    baseline = link.latency_s
    FaultInjector(sim, topo=topo).arm(
        FaultPlan("p", [LatencySpike(at=0.1, link="a", latency_s=0.2, duration=0.4)])
    )
    sim.run(until=0.3)
    assert link.latency_s == 0.2
    sim.run(until=1.0)
    assert link.latency_s == baseline


def test_link_accepts_topology_prefix_names():
    sim, topo, a, _b = small_world()
    injector = FaultInjector(sim, topo=topo)
    assert injector._link("a") is a.stack.interfaces[0].link
    assert injector._link("link:a") is a.stack.interfaces[0].link


# ----------------------------------------------------------------------
# the injector on full deployments
# ----------------------------------------------------------------------
def test_server_restart_loses_sessions_and_clients_recover():
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.25, charge_cpu=False
    ).build()
    world.connect_all()
    sim = world.sim
    client = world.clients[0]
    sink = UdpSink(world.internal, 6000)
    UdpTrafficSource(client.host, world.internal.address, 6000, rate_bps=4e5, packet_bytes=400).start()
    FaultInjector.from_deployment(world).arm(
        FaultPlan("p", [ServerRestart(at=0.5, outage_s=1.0)])
    )
    sim.run(until=sim.now + 0.6)
    assert world.server.down
    assert not world.server.sessions_by_peer  # session table gone
    during = sink.packets
    sim.run(until=sim.now + 10.0)
    assert world.server.restarts == 1
    assert client.reconnects >= 1
    assert world.server.sessions_by_peer  # re-handshaked
    assert sink.packets > during  # traffic resumed


def test_client_crash_restores_from_sealed_state():
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.25, charge_cpu=False
    ).build()
    world.connect_all()
    sim = world.sim
    client = world.clients[0]
    old_enclave = client.endbox.enclave
    subject_before = next(iter(world.server.sessions_by_peer.values())).certificate.subject
    sink = UdpSink(world.internal, 6001)
    UdpTrafficSource(client.host, world.internal.address, 6001, rate_bps=4e5, packet_bytes=400).start()
    FaultInjector.from_deployment(world).arm(
        FaultPlan("p", [ClientCrash(at=0.5, client=0, outage_s=1.0)])
    )
    sim.run(until=sim.now + 1.0)
    assert client.suspended
    assert old_enclave.destroyed
    sim.run(until=sim.now + 10.0)
    assert client.crashes == 1
    assert not client.suspended
    assert client.endbox.enclave is not old_enclave
    assert not client.endbox.enclave.destroyed
    assert client.reconnects >= 1
    # the sealed identity survived: same certificate subject re-admitted
    subject_after = next(iter(world.server.sessions_by_peer.values())).certificate.subject
    assert subject_after == subject_before
    assert sink.packets > 0


def test_gateway_retires_the_session_a_crashed_client_left():
    # the restarted client handshakes from a new source port; the old
    # session hears no ping again and is retired after 12 ping intervals
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.2).build()
    world.connect_all()
    world.arm_faults(FaultPlan("p", [ClientCrash(at=0.5, client=0, outage_s=1.0)]))
    world.sim.run(until=world.sim.now + 30.0)
    server = world.server
    assert world.clients[0].crashes == 1
    assert len(server.sessions_by_peer) == 1
    assert len(server.sessions_by_tunnel_ip) == 1
    assert server.sessions_retired == 1


def test_gateway_never_retires_a_client_that_keeps_pinging():
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.2).build()
    world.connect_all()
    (session,) = world.server.sessions_by_peer.values()
    world.sim.run(until=world.sim.now + 30.0)
    assert list(world.server.sessions_by_peer.values()) == [session]
    assert world.server.sessions_retired == 0


def test_half_open_session_ages_from_its_creation():
    ping = 0.2
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=ping).build()
    sim, server, client = world.sim, world.server, world.clients[0]
    sim.run(until=5.0)
    client.start()
    while not server.sessions_by_peer:
        sim.step()
    client.suspend()  # the handshake reply falls on a closed port: no ping ever comes
    created = sim.now
    sim.run(until=created + 12 * ping - 0.3)
    assert len(server.sessions_by_peer) == 1
    sim.run(until=created + 12 * ping + 0.3)
    assert not server.sessions_by_peer and not server.sessions_by_tunnel_ip
    assert server.sessions_retired == 1


def test_config_outage_forces_fetch_retries_then_converges():
    from repro.click import configs as click_configs

    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.25, charge_cpu=False
    ).build()
    world.connect_all()
    sim = world.sim
    client = world.clients[0]
    FaultInjector.from_deployment(world).arm(
        FaultPlan("p", [ConfigServerOutage(at=0.0, duration=1.5)])
    )
    bundle = world.publisher.build_bundle(2, click_configs.nop_config(), encrypt=True)
    world.publisher.publish(bundle, world.config_server, world.server, grace_period_s=30.0)
    sim.run(until=sim.now + 10.0)
    assert client.config_fetch_retries > 0  # first fetches answered 503
    assert client.config_version == 2
    assert world.config_server.http.requests_rejected > 0


def test_epc_pressure_window_raises_paging_then_releases():
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", with_config_server=False, charge_cpu=False
    ).build()
    sim = world.sim
    epc = world.platforms[0].epc
    baseline = epc.paging_fraction()
    FaultInjector.from_deployment(world).arm(
        FaultPlan("p", [EpcPressure(at=0.5, nbytes=200 << 20, duration=1.0, client=0)])
    )
    sim.run(until=1.0)
    assert epc.paging_fraction() > baseline
    sim.run(until=2.0)
    assert epc.paging_fraction() == pytest.approx(baseline)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def injected_run_digest():
    with telemetry.session(recording=True):
        world = DeploymentSpec(
            clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.25, charge_cpu=False
        ).build()
    world.connect_all()
    sink = UdpSink(world.internal, 6002)
    UdpTrafficSource(
        world.clients[0].host, world.internal.address, 6002, rate_bps=4e5, packet_bytes=400
    ).start()
    injector = FaultInjector.from_deployment(world)
    injector.arm(
        FaultPlan(
            "det",
            [
                LinkLoss(at=0.2, link="client-0", rate=0.2, duration=1.0),
                ServerRestart(at=1.5, outage_s=0.5),
            ],
        )
    )
    world.sim.run(until=world.sim.now + 5.0)
    return injector.trace_digest(), sink.packets


def test_same_seed_same_plan_byte_identical_trace():
    digest_a, packets_a = injected_run_digest()
    digest_b, packets_b = injected_run_digest()
    assert packets_a == packets_b
    assert digest_a == digest_b


# ----------------------------------------------------------------------
# the chaos rollout scenario
# ----------------------------------------------------------------------
def test_chaos_rollout_converges_with_zero_stale_admissions():
    result = run_chaos_rollout()
    assert result.converged, f"clients ended on {result.final_versions}"
    assert result.final_versions == [3, 3, 3]
    assert result.stale_admitted_after_grace == 0
    assert result.client_crashes == [0, 1, 0]  # the planned crash, only
    assert result.config_fetch_retries > 0  # the config outage bit
    assert len(result.timeline) == 5
    assert result.packets_delivered > 0


def test_chaos_rollout_with_cpu_charges_converges():
    # the CPU cost model every figure and bench world uses: the client
    # crash and the server restart interrupt workers mid-charge, a
    # crashed client's work in flight sends nothing, and config fetches
    # time out during the file server's outage
    result = run_chaos_rollout(charge_cpu=True)
    assert result.converged, f"clients ended on {result.final_versions}"
    assert result.final_versions == [3, 3, 3]
    assert result.stale_admitted_after_grace == 0
    assert result.client_crashes == [0, 1, 0]
    assert result.config_fetch_retries > 0
    assert result.packets_delivered > 0


def test_chaos_rollout_is_deterministic():
    first = run_chaos_rollout()
    second = run_chaos_rollout()
    assert first.trace_digest == second.trace_digest
    assert first.timeline == second.timeline
    assert first.packets_delivered == second.packets_delivered

"""Sharded parallel runner: partitioning, ordering, determinism, adapters."""

import multiprocessing

import pytest

from repro.experiments.fig10_swarm import (
    SwarmParams,
    modeled_stage_events,
    run_packet_reference,
    run_swarm,
    swarm_throughput_bps,
)
from repro.netsim.interface import Interface
from repro.netsim.link import Link
from repro.netsim.shardlink import CrossShardEgressLink, CrossShardIngressPort
from repro.sim import SimulationError, Simulator
from repro.sim.parallel import (
    CrossShardFabric,
    ShardPlan,
    fork_available,
    run_serial,
    run_sharded,
)

SMALL = SwarmParams(n_clients=60, horizon_s=0.004, warmup_s=0.001)


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
def test_partition_single_shard_hosts_everything():
    plan = ShardPlan.partition(5, 1, 1e-3)
    assert plan.client_shards == (0, 0, 0, 0, 0)
    assert plan.clients_on(0) == [0, 1, 2, 3, 4]


def test_partition_spreads_contiguous_blocks_off_gateway():
    plan = ShardPlan.partition(7, 3, 1e-3)
    # shard 0 is the gateway: no clients; remainder goes to earlier shards
    assert plan.clients_on(0) == []
    assert plan.clients_on(1) == [0, 1, 2, 3]
    assert plan.clients_on(2) == [4, 5, 6]
    assert plan.n_clients == 7


def test_partition_rejects_bad_arguments():
    with pytest.raises(SimulationError):
        ShardPlan.partition(4, 0, 1e-3)
    with pytest.raises(SimulationError):
        ShardPlan.partition(-1, 2, 1e-3)
    with pytest.raises(SimulationError):
        ShardPlan.partition(4, 2, 0.0)
    with pytest.raises(SimulationError):
        ShardPlan(n_shards=2, lookahead_s=1e-3, client_shards=(0, 5))


def test_window_bounds_cover_horizon_without_accumulation():
    plan = ShardPlan.partition(0, 2, 0.005)
    bounds = plan.window_bounds(0.02)
    assert bounds == [0.005, 0.01, 0.015, 0.02]
    # non-multiple horizon: final window is clipped, never overshoots
    assert plan.window_bounds(0.012)[-1] == 0.012
    # horizon shorter than one lookahead: single clipped window
    assert plan.window_bounds(0.001) == [0.001]


# ----------------------------------------------------------------------
# CrossShardFabric
# ----------------------------------------------------------------------
def test_fabric_rejects_duplicate_and_dangling_wiring():
    Simulator()  # installs a current registry for the fabric counters
    fabric = CrossShardFabric(shard_index=0, n_shards=2)
    fabric.open_egress("ch", 1)
    with pytest.raises(SimulationError):
        fabric.open_egress("ch", 1)
    with pytest.raises(SimulationError):
        fabric.open_egress("other", 7)
    fabric.bind_ingress("in", lambda payload: None)
    with pytest.raises(SimulationError):
        fabric.bind_ingress("in", lambda payload: None)


def test_fabric_inject_requires_bound_ingress_and_matching_batching():
    sim = Simulator()
    fabric = CrossShardFabric(shard_index=0, n_shards=1)
    with pytest.raises(SimulationError):
        fabric.inject(sim, [("ghost", 0, False, [(1.0, 0, b"x")])])
    fabric.bind_ingress("batchy", lambda frames: None, batched=True)
    with pytest.raises(SimulationError):
        fabric.inject(sim, [("batchy", 0, False, [(1.0, 0, b"x")])])


def test_fabric_injects_in_canonical_order_before_local_events():
    sim = Simulator()
    fabric = CrossShardFabric(shard_index=0, n_shards=1)
    order = []
    fabric.bind_ingress("b", lambda p: order.append(("b", p)))
    fabric.bind_ingress("a", lambda p: order.append(("a", p)))
    sim.schedule(1.0, lambda: order.append(("local", None)))
    # records arrive in arbitrary (non-canonical) order
    fabric.inject(
        sim,
        [
            ("b", 0, False, [(1.0, 0, "b0")]),
            ("a", 0, False, [(1.0, 1, "a1"), (1.0, 0, "a0"), (0.5, 2, "early")]),
        ],
    )
    sim.run()
    assert order == [
        ("a", "early"),
        ("a", "a0"),
        ("a", "a1"),
        ("b", "b0"),
        ("local", None),
    ]


def test_lookahead_violation_fails_loudly_at_injection():
    sim = Simulator()
    fabric = CrossShardFabric(shard_index=0, n_shards=1)
    fabric.bind_ingress("late", lambda p: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="past"):
        fabric.inject(sim, [("late", 0, False, [(0.5, 0, b"x")])])


# ----------------------------------------------------------------------
# determinism contract
# ----------------------------------------------------------------------
def test_one_shard_matches_serial_engine_exactly():
    serial = run_swarm(SMALL, 1, mode="serial")
    inline = run_swarm(SMALL, 1, mode="inline")
    assert inline.trace_digest() == serial.trace_digest()
    assert inline.total_events == serial.total_events


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_digest_matches_serial_reference(n_shards):
    serial = run_swarm(SMALL, n_shards, mode="serial")
    inline = run_swarm(SMALL, n_shards, mode="inline")
    assert inline.trace_digest() == serial.trace_digest()
    assert inline.total_events == serial.total_events
    assert inline.merged_snapshot["counters"] == serial.merged_snapshot["counters"]


@pytest.mark.skipif(not fork_available(), reason="requires POSIX fork")
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_fork_workers_digest_match_serial_reference(n_shards):
    serial = run_swarm(SMALL, n_shards, mode="serial")
    fork = run_swarm(SMALL, n_shards, mode="fork")
    assert fork.trace_digest() == serial.trace_digest()
    assert fork.total_events == serial.total_events


def test_same_seed_same_shard_count_repeats_byte_identical():
    first = run_swarm(SMALL, 2, mode="inline")
    second = run_swarm(SMALL, 2, mode="inline")
    assert first.trace_digest() == second.trace_digest()


def test_two_shard_digest_matches_serial_smoke():
    """The ``make check`` shard-determinism smoke (small fig10 config)."""
    params = SwarmParams(n_clients=24, horizon_s=0.002, warmup_s=0.0005)
    serial = run_swarm(params, 2, mode="serial")
    sharded = run_swarm(params, 2, mode="auto")
    assert sharded.trace_digest() == serial.trace_digest()


def test_unknown_mode_rejected():
    with pytest.raises(SimulationError):
        run_swarm(SMALL, 2, mode="hovercraft")


def _shard_one_fails(ctx):
    if ctx.shard_index == 1:
        raise ValueError("shard one is cursed")


@pytest.mark.skipif(not fork_available(), reason="requires POSIX fork")
def test_worker_failure_propagates_with_shard_name():
    plan = ShardPlan.partition(2, 2, 1e-3)
    with pytest.raises(SimulationError, match="shard 1"):
        run_sharded(_shard_one_fails, plan, 0.01, mode="fork")


@pytest.mark.skipif(not fork_available(), reason="requires POSIX fork")
def test_worker_report_survives_pipe_closed_before_first_window(monkeypatch):
    """The failed worker is certainly gone before the first window is
    sent, so the send breaks; its report must still be read."""
    window_bounds = ShardPlan.window_bounds

    def after_shard_one_exits(self, horizon_s):
        # runs after the workers start and before the first send
        for child in multiprocessing.active_children():
            if child.name == "shard-1":
                child.join(timeout=30)
                assert not child.is_alive()
        return window_bounds(self, horizon_s)

    monkeypatch.setattr(ShardPlan, "window_bounds", after_shard_one_exits)
    plan = ShardPlan.partition(2, 2, 1e-3)
    with pytest.raises(SimulationError, match="shard 1 worker failed") as failure:
        run_sharded(_shard_one_fails, plan, 0.01, mode="fork")
    assert "shard one is cursed" in str(failure.value)


# ----------------------------------------------------------------------
# swarm accounting
# ----------------------------------------------------------------------
def test_swarm_packet_conservation_and_throughput():
    result = run_swarm(SMALL, 2, mode="inline")
    counters = result.merged_snapshot["counters"]
    packets = counters["netsim.swarm.packets"]
    delivered = counters["netsim.swarm.delivered"]
    assert 0 < delivered <= packets
    # every delivered packet carries exactly packet_bytes
    assert counters["netsim.swarm.delivered_bytes"] == delivered * SMALL.packet_bytes
    assert counters["netsim.swarm.window_bytes"] <= counters["netsim.swarm.delivered_bytes"]
    # per-packet stage accounting is exact, not extrapolated
    assert counters["netsim.swarm.steps"] == packets * SMALL.client_steps
    assert counters["netsim.swarm.gateway_steps"] == delivered * SMALL.gateway_steps
    # goodput lands on the offered load (no loss modelled in this scenario)
    offered = SMALL.n_clients * SMALL.per_client_bps
    assert swarm_throughput_bps(result, SMALL) == pytest.approx(offered, rel=0.05)


def test_packet_reference_counts_same_stage_events():
    params = SwarmParams(n_clients=8, horizon_s=0.003, warmup_s=0.001)
    reference = run_packet_reference(params)
    flow = run_swarm(params, 1, mode="serial")
    # both arms account the same per-packet stages; rates may differ,
    # totals must agree within edge effects at the horizon boundary
    ref_modeled = reference.modeled_events
    flow_modeled = modeled_stage_events(flow.merged_snapshot["counters"])
    assert ref_modeled > 0 and flow_modeled > 0
    assert abs(ref_modeled - flow_modeled) / max(ref_modeled, flow_modeled) < 0.1
    # and the reference really does burn about one heap event per stage
    assert reference.events_executed >= ref_modeled


# ----------------------------------------------------------------------
# cross-shard link adapters (frame granularity)
# ----------------------------------------------------------------------
def _drive_frames(sim, iface, count=20, nbytes=100, gap=50e-6):
    def source():
        for _ in range(count):
            iface.send(bytes(nbytes))
            yield sim.timeout(gap)

    sim.process(source())


def test_cross_shard_link_matches_local_link_timing():
    """Differential: CrossShardEgressLink vs a real Link, same frames."""
    horizon = 0.002
    # reference: one sim, a real duplex link
    ref_sim = Simulator()
    ref_arrivals = []
    tx = Interface("client.eth0")
    rx = Interface(
        "gw.eth0", on_receive=lambda f, _i: ref_arrivals.append((ref_sim.now, len(f)))
    )
    link = Link(ref_sim, bandwidth_bps=1e9, latency_s=40e-6, name="ref")
    link.attach(tx)
    link.attach(rx)
    _drive_frames(ref_sim, tx)
    ref_sim.run(until=horizon)

    # sharded: sender on shard 1, receiver on shard 0, inline mode
    shard_arrivals = []

    def build(ctx):
        if ctx.is_gateway:
            gw = Interface(
                "gw.eth0",
                on_receive=lambda f, _i, s=ctx.sim: shard_arrivals.append((s.now, len(f))),
            )
            CrossShardIngressPort(ctx.fabric, "uplink", gw)
        else:
            client = Interface("client.eth0")
            xlink = CrossShardEgressLink(
                ctx.sim,
                ctx.fabric,
                "uplink",
                dest_shard=0,
                bandwidth_bps=1e9,
                latency_s=40e-6,
                name="xref",
            )
            xlink.attach(client)
            _drive_frames(ctx.sim, client)

    plan = ShardPlan.partition(1, 2, lookahead_s=20e-6)
    run_sharded(build, plan, horizon, mode="inline")
    assert shard_arrivals == ref_arrivals


def test_cross_shard_link_enforces_mtu_and_queue_bound():
    sim = Simulator()
    fabric = CrossShardFabric(shard_index=0, n_shards=1)
    xlink = CrossShardEgressLink(
        sim, fabric, "ch", dest_shard=0, mtu=1500, queue_frames=2, name="tiny"
    )
    iface = Interface("eth0")
    xlink.attach(iface)
    assert not iface.send(bytes(1561))  # over MTU + encapsulation headroom
    assert iface.send(bytes(100))
    assert iface.send(bytes(100))
    assert not iface.send(bytes(100))  # queue full: dropped, counted
    assert xlink.frames_dropped == 2
    assert xlink.frames_sent == 2


def test_serial_runner_counts_frames_shipped():
    result = run_serial(
        make_noop_exchanger(), ShardPlan.partition(0, 2, 1e-3), horizon_s=0.01
    )
    # every emitted frame crossed a barrier (none emitted in the final
    # window: accumulated tick drift pushes the 10th ping past the horizon)
    assert result.frames_shipped == 9
    assert result.counter("sim.shard.frames") == result.frames_shipped


def make_noop_exchanger():
    """Builder: shard 1 pings shard 0 once per window."""

    def build(ctx):
        if ctx.is_gateway:
            ctx.fabric.bind_ingress("ping", lambda p: None)
        elif ctx.shard_index == 1:
            egress = ctx.fabric.open_egress("ping", 0)

            def pinger():
                while True:
                    yield ctx.sim.timeout(1e-3)
                    egress.emit(ctx.sim.now + 1e-3, b"ping")

            ctx.sim.process(pinger())

    return build

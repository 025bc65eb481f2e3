"""Sharded parallel runner: partitioning, ordering, determinism, accounting."""

import multiprocessing

import pytest

from repro.fleet.swarm import (
    BYTES_NAME,
    DELIVERED_BYTES_NAME,
    DELIVERED_NAME,
    GATEWAY_STEPS_NAME,
    PACKETS_NAME,
    STEPS_NAME,
    WINDOW_BYTES_NAME,
    FleetSwarmParams,
    fleet_goodput_bps,
    run_fleet_swarm,
)
from repro.sim import SimulationError, Simulator
from repro.sim.parallel import (
    CrossShardFabric,
    ShardPlan,
    fork_available,
    run_serial,
    run_sharded,
)
from repro.telemetry.registry import Registry


def _fault_free(n_clients=60, horizon_s=0.004, warmup_s=0.001):
    """A small fleet with no restarts and no stragglers: every packet a
    source emits before the last barrier is delivered."""
    return FleetSwarmParams(
        n_clients=n_clients,
        n_gateways=2,
        per_client_bps=20e6,
        horizon_s=horizon_s,
        warmup_s=warmup_s,
        stale_every=0,
    )


SMALL = _fault_free()


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
    fabric.bind_ingress("in", lambda frames: None)
    with pytest.raises(SimulationError):
        fabric.bind_ingress("in", lambda frames: None)


def test_fabric_inject_requires_bound_ingress():
    sim = Simulator()
    fabric = CrossShardFabric(shard_index=0, n_shards=1)
    with pytest.raises(SimulationError, match="no ingress"):
        fabric.inject(sim, [("ghost", 0, [(1.0, 0, b"x")])])


def test_fabric_injects_in_canonical_order_before_local_events():
    sim = Simulator()
    fabric = CrossShardFabric(shard_index=0, n_shards=1)
    order = []

    def receiver(channel):
        return lambda frames: order.append((channel, sim.now, [f[2] for f in frames]))

    for channel in ("c", "b", "a"):
        fabric.bind_ingress(channel, receiver(channel))
    sim.schedule(1.0, lambda: order.append(("local", sim.now, None)))
    # records arrive in arbitrary (non-canonical) order
    fabric.inject(
        sim,
        [
            ("c", 0, [(1.0, 0, "c0")]),
            ("b", 0, [(1.0, 3, "b3")]),
            ("a", 0, [(0.5, 2, "a2"), (1.0, 3, "a3")]),
        ],
    )
    sim.run()
    # one delivery per channel, at its first frame's time, carrying the
    # whole list; same-time batches by channel, all before local events
    assert order == [
        ("a", 0.5, ["a2", "a3"]),
        ("b", 1.0, ["b3"]),
        ("c", 1.0, ["c0"]),
        ("local", 1.0, None),
    ]


def test_lookahead_violation_fails_loudly_at_injection():
    sim = Simulator()
    fabric = CrossShardFabric(shard_index=0, n_shards=1)
    fabric.bind_ingress("late", lambda frames: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="past"):
        fabric.inject(sim, [("late", 0, [(0.5, 0, b"x")])])


def make_noop_exchanger():
    """Builder: shard 1 pings shard 0 once per window."""

    def build(ctx):
        if ctx.is_gateway:
            ctx.fabric.bind_ingress("ping", lambda frames: None)
        elif ctx.shard_index == 1:
            egress = ctx.fabric.open_egress("ping", 0)

            def pinger():
                while True:
                    yield ctx.sim.timeout(1e-3)
                    egress.emit(ctx.sim.now + 1e-3, b"ping")

            ctx.sim.process(pinger())

    return build


def test_runners_count_cross_shard_frames():
    plan = ShardPlan.partition(0, 2, 1e-3)
    # every emitted frame is counted where it is emitted (accumulated
    # tick drift pushes the 10th ping past the horizon)
    serial = run_serial(make_noop_exchanger(), plan, horizon_s=0.01)
    assert serial.counter("sim.shard.frames") == 9
    inline = run_sharded(make_noop_exchanger(), plan, horizon_s=0.01, mode="inline")
    assert inline.counter("sim.shard.frames") == 9


# ----------------------------------------------------------------------
# determinism contract
# ----------------------------------------------------------------------
def test_one_shard_matches_serial_engine_exactly():
    serial = run_fleet_swarm(SMALL, 1, mode="serial")
    inline = run_fleet_swarm(SMALL, 1, mode="inline")
    assert inline.trace_digest() == serial.trace_digest()
    assert inline.total_events == serial.total_events


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_digest_matches_serial_reference(n_shards):
    serial = run_fleet_swarm(SMALL, n_shards, mode="serial")
    inline = run_fleet_swarm(SMALL, n_shards, mode="inline")
    assert inline.trace_digest() == serial.trace_digest()
    assert inline.total_events == serial.total_events
    assert inline.merged_snapshot["counters"] == serial.merged_snapshot["counters"]


@pytest.mark.skipif(not fork_available(), reason="requires POSIX fork")
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_fork_workers_digest_match_serial_reference(n_shards):
    serial = run_fleet_swarm(SMALL, n_shards, mode="serial")
    fork = run_fleet_swarm(SMALL, n_shards, mode="fork")
    assert fork.trace_digest() == serial.trace_digest()
    assert fork.total_events == serial.total_events


def test_same_seed_same_shard_count_repeats_byte_identical():
    first = run_fleet_swarm(SMALL, 2, mode="inline")
    second = run_fleet_swarm(SMALL, 2, mode="inline")
    assert first.trace_digest() == second.trace_digest()


def test_two_shard_digest_matches_serial_smoke():
    """The ``make check`` shard-determinism smoke (a small fleet)."""
    params = _fault_free(n_clients=24, horizon_s=0.002, warmup_s=0.0005)
    serial = run_fleet_swarm(params, 2, mode="serial")
    sharded = run_fleet_swarm(params, 2, mode="auto")
    assert sharded.trace_digest() == serial.trace_digest()


def test_unknown_mode_rejected():
    with pytest.raises(SimulationError):
        run_fleet_swarm(SMALL, 2, mode="hovercraft")


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
    result = run_fleet_swarm(SMALL, 2, mode="inline")
    counters = result.merged_snapshot["counters"]
    packets = counters[PACKETS_NAME]
    delivered = counters[DELIVERED_NAME]
    assert 0 < delivered <= packets
    # every delivered packet carries exactly packet_bytes
    assert counters[DELIVERED_BYTES_NAME] == delivered * SMALL.packet_bytes
    assert counters[WINDOW_BYTES_NAME] <= counters[DELIVERED_BYTES_NAME]
    # per-packet stage accounting is exact, not extrapolated
    assert counters[STEPS_NAME] == packets * SMALL.client_steps
    assert counters[GATEWAY_STEPS_NAME] == delivered * SMALL.gateway_steps
    # goodput lands on the offered load (no faults, no stragglers)
    offered = SMALL.n_clients * SMALL.per_client_bps
    assert fleet_goodput_bps(result, SMALL) == pytest.approx(offered, rel=0.05)


def _modeled_stage_events(counters):
    """Client stages + one link transfer + gateway stages per packet:
    the packet-granularity engine spends at least one heap event on each."""
    return int(
        counters.get(STEPS_NAME, 0)
        + counters.get(DELIVERED_NAME, 0)
        + counters.get(GATEWAY_STEPS_NAME, 0)
    )


def _run_packet_reference(params):
    """Drive the same offered load per packet through one serial sim.

    Every client is its own process; every client stage, link transfer
    and gateway stage is a separate heap event, and the counters match
    the swarm's names and accounting.  Returns (events, counters).
    """
    sim = Simulator()
    registry = Registry.current()
    tm_packets = registry.counter(PACKETS_NAME)
    tm_bytes = registry.counter(BYTES_NAME)
    tm_steps = registry.counter(STEPS_NAME)
    tm_delivered = registry.counter(DELIVERED_NAME)
    tm_delivered_bytes = registry.counter(DELIVERED_BYTES_NAME)
    tm_window_bytes = registry.counter(WINDOW_BYTES_NAME)
    tm_gateway_steps = registry.counter(GATEWAY_STEPS_NAME)
    interval = params.packet_bytes * 8 / params.per_client_bps
    stage_delay = 2e-6  # per-stage processing latency, client and gateway

    def gateway_side():
        for _ in range(params.gateway_steps):
            yield sim.timeout(stage_delay)
            tm_gateway_steps.inc()
        tm_delivered.inc()
        tm_delivered_bytes.inc(params.packet_bytes)
        if sim.now >= params.warmup_s:
            tm_window_bytes.inc(params.packet_bytes)

    def client(index):
        # stagger starts so the heap never sees all clients in lockstep
        yield sim.timeout(interval * (index + 1) / params.n_clients)
        while True:
            tm_packets.inc()
            tm_bytes.inc(params.packet_bytes)
            for _ in range(params.client_steps):
                yield sim.timeout(stage_delay)
                tm_steps.inc()
            sim.schedule(params.latency_s, lambda: sim.process(gateway_side()))
            yield sim.timeout(interval)

    for index in range(params.n_clients):
        sim.process(client(index), name=f"client{index}")
    sim.run(until=params.horizon_s)
    return sim.events_executed, sim.telemetry.snapshot()["counters"]


def test_packet_reference_counts_same_stage_events():
    params = FleetSwarmParams(
        n_clients=8,
        n_gateways=2,
        per_client_bps=200e6,
        horizon_s=0.003,
        warmup_s=0.001,
        stale_every=0,
    )
    ref_events, ref_counters = _run_packet_reference(params)
    flow = run_fleet_swarm(params, 1, mode="serial")
    # both arms account the same per-packet stages; rates may differ,
    # totals must agree within edge effects at the horizon boundary
    ref_modeled = _modeled_stage_events(ref_counters)
    flow_modeled = _modeled_stage_events(flow.merged_snapshot["counters"])
    assert ref_modeled > 0 and flow_modeled > 0
    assert abs(ref_modeled - flow_modeled) / max(ref_modeled, flow_modeled) < 0.1
    # and the reference really does burn about one heap event per stage
    assert ref_events >= ref_modeled

"""Fleet rollout at swarm scale: counters, conservation, determinism,
the grace deadline, and the packet-level fleet as the oracle of the
swarm's migrations.

The module doubles as its own subprocess worker: ``python -m
tests.test_fleet_scenario`` prints the digest of one quick-size swarm
run, which the determinism test compares against in-process runs.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import FaultPlan, GatewayRestart, LinkLoss, trace_digest
from repro.fleet.swarm import (
    ALL_DOWN_DROPS_NAME,
    BYTES_NAME,
    DELIVERED_BYTES_NAME,
    DELIVERED_NAME,
    GATEWAY_STEPS_NAME,
    MIGRATIONS_NAME,
    PACKETS_NAME,
    REMAPS_NAME,
    STALE_ADMITTED_NAME,
    STALE_REJECTED_NAME,
    STEPS_NAME,
    WINDOW_BYTES_NAME,
    FleetDispatcher,
    FleetSwarmParams,
    fleet_goodput_bps,
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
from repro.sim import SimulationError, Simulator
from repro.telemetry.registry import Registry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


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
    for warmup_s in (0.05, 0.06):
        with pytest.raises(SimulationError, match="warmup_s"):
            # a warm-up as long as the run leaves no throughput window
            FleetSwarmParams(horizon_s=0.05, warmup_s=warmup_s)


def run_counting_frames(params, monkeypatch):
    """Run the swarm and also count the frames handed to the dispatcher."""
    handed = []
    on_batch = FleetDispatcher.on_batch

    def counting(self, frames):
        handed.append(len(frames))
        on_batch(self, frames)

    monkeypatch.setattr(FleetDispatcher, "on_batch", counting)
    return run_fleet_swarm(params).telemetry.value, sum(handed)


def assert_conserved(counter, handed):
    """Every frame handed over is delivered, stale-rejected or dropped."""
    assert handed > 0
    assert handed == (
        counter(DELIVERED_NAME) + counter(STALE_REJECTED_NAME) + counter(ALL_DOWN_DROPS_NAME)
    )


def test_rolling_restart_smoke(monkeypatch):
    counter, handed = run_counting_frames(_smoke_params(), monkeypatch)
    # the restarts migrated every client away and back: two gateways,
    # each drained once...
    assert counter(MIGRATIONS_NAME) == 2 * 400
    assert counter(REMAPS_NAME) == counter(MIGRATIONS_NAME)
    # ...stragglers were rejected after the grace deadline...
    assert counter(STALE_REJECTED_NAME) > 0
    # ...no stale packet was admitted, and one gateway was always up
    assert counter(STALE_ADMITTED_NAME) == 0
    assert counter(ALL_DOWN_DROPS_NAME) == 0
    assert_conserved(counter, handed)


def _quick_digest():
    """Digest of the quick-size headline swarm (600 clients, 4 gateways)."""
    spec = fleet_rollout_spec(n_clients=600, gateways=4)
    return trace_digest(run_fleet_swarm(swarm_params_from_spec(spec)).telemetry)


def test_swarm_digest_repeats_in_process_and_in_a_fresh_interpreter():
    first = _quick_digest()
    assert _quick_digest() == first
    fresh = subprocess.run(
        [sys.executable, "-m", "tests.test_fleet_scenario"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": f"{SRC}:{REPO_ROOT}", "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == first


def test_fleet_rollout_experiment_passes_acceptance():
    spec = fleet_rollout_spec(n_clients=600, gateways=4)
    params = swarm_params_from_spec(spec, horizon_s=0.05)
    result = run_fleet_rollout(spec=spec, params=params)
    meta = result.metadata
    assert meta["n_gateways"] == 4
    assert meta["digest"] == _quick_digest()
    assert meta["stale_admitted_after_grace"] == 0
    # every client drained once and re-homed once
    assert meta["migrations"] == meta["remaps"] == 2 * 600
    assert "sessions_resumed" not in meta
    assert meta["stale_rejected"] > 0
    # the spec (fault plan included) is the single declarative source
    assert meta["fault_plan"]["name"] == "rolling-gateway-restart"
    assert result.series["admitted goodput"][600] > 0
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


def test_swarm_drops_packets_while_every_gateway_is_down(monkeypatch):
    spec, _ = ORACLE_PLANS["all_down"]
    params = swarm_params_from_spec(spec, stale_every=0)
    dark, handed = run_counting_frames(params, monkeypatch)
    lit = run_fleet_swarm(replace(params, fault_plan=None)).telemetry.value
    assert lit(DELIVERED_NAME) == lit(PACKETS_NAME)
    assert lit(ALL_DOWN_DROPS_NAME) == 0
    # 5 ms of the 8 clients' 2 Mbit/s in 1,500 B packets is ~6.7
    # packets; this emission phase puts 7 inside the dark window, and
    # each is counted where it was dropped
    assert dark(ALL_DOWN_DROPS_NAME) == 7
    assert dark(ALL_DOWN_DROPS_NAME) == lit(DELIVERED_NAME) - dark(DELIVERED_NAME)
    assert_conserved(dark, handed)


def _fault_free(n_clients=60, horizon_s=0.004, warmup_s=0.001):
    """A small fleet with no restarts and no stragglers: every packet
    handed to the dispatcher is delivered."""
    return FleetSwarmParams(
        n_clients=n_clients,
        n_gateways=2,
        per_client_bps=20e6,
        horizon_s=horizon_s,
        warmup_s=warmup_s,
        stale_every=0,
    )


def test_swarm_packet_conservation_and_throughput():
    small = _fault_free()
    sim = run_fleet_swarm(small)
    counter = sim.telemetry.value
    packets = counter(PACKETS_NAME)
    delivered = counter(DELIVERED_NAME)
    assert 0 < delivered <= packets
    # every delivered packet carries exactly packet_bytes
    assert counter(DELIVERED_BYTES_NAME) == delivered * small.packet_bytes
    assert counter(WINDOW_BYTES_NAME) <= counter(DELIVERED_BYTES_NAME)
    # per-packet stage accounting is exact, not extrapolated
    assert counter(STEPS_NAME) == packets * small.client_steps
    assert counter(GATEWAY_STEPS_NAME) == delivered * small.gateway_steps
    # goodput lands on the offered load (no faults, no stragglers)
    offered = small.n_clients * small.per_client_bps
    assert fleet_goodput_bps(sim, small) == pytest.approx(offered, rel=0.05)


def _modeled_stage_events(counter):
    """Client stages + one link transfer + gateway stages per packet:
    the packet-granularity engine spends at least one heap event on each."""
    return int(counter(STEPS_NAME) + counter(DELIVERED_NAME) + counter(GATEWAY_STEPS_NAME))


def _run_packet_reference(params):
    """Drive the same offered load per packet through one simulator.

    Every client is its own process; every client stage, link transfer
    and gateway stage is a separate heap event, and the counters match
    the swarm's names and accounting.  Returns the simulator.
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
    return sim


def test_packet_reference_counts_same_stage_events():
    params = FleetSwarmParams(
        n_clients=8,
        n_gateways=2,
        per_client_bps=200e6,
        horizon_s=0.003,
        warmup_s=0.001,
        stale_every=0,
    )
    ref = _run_packet_reference(params)
    flow = run_fleet_swarm(params)
    # both arms account the same per-packet stages; rates may differ,
    # totals must agree within edge effects at the horizon boundary
    ref_modeled = _modeled_stage_events(ref.telemetry.value)
    flow_modeled = _modeled_stage_events(flow.telemetry.value)
    assert ref_modeled > 0 and flow_modeled > 0
    assert abs(ref_modeled - flow_modeled) / max(ref_modeled, flow_modeled) < 0.1
    # and the reference really does burn about one heap event per stage
    assert ref.events_executed >= ref_modeled


if __name__ == "__main__":
    print(_quick_digest())

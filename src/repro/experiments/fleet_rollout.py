"""Fleet rollout at swarm scale: the multi-gateway headline scenario.

Runs 10k+ flow-level clients (:mod:`repro.fleet.swarm`) against a
hash-ring-balanced gateway fleet through a *rolling restart*: a
:class:`~repro.faults.FaultPlan` of :class:`~repro.faults.GatewayRestart`
events takes each gateway down in turn while a fleet-wide config
announcement's grace deadline (§III-E) is in flight.  The experiment
reports the admitted goodput, the run's trace digest and the fleet
counters the acceptance bar names: migrations during the restarts,
stale rejections after the deadline, and the ``stale_admitted``
counter at 0.

Its oracle, :func:`compare_fleets`, runs the same spec and plan through
the packet-level fleet, whose restarts drive the real migration path
(close the session, retarget, re-handshake); both fleets place clients
by ``HashRing.moves``.

The whole scenario is described by one declarative
:class:`~repro.fleet.DeploymentSpec` (clients, gateways, fault plan);
:func:`swarm_params_from_spec` translates it to the
flow-level model's parameters so the spec stays the single source of
truth for both the packet-granularity and the swarm arm.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.experiments.common import ExperimentResult
from repro.faults.injector import trace_digest
from repro.faults.plan import FaultPlan, GatewayRestart
from repro.fleet.spec import DeploymentSpec
from repro.fleet.swarm import (
    MIGRATIONS_NAME,
    REMAPS_NAME,
    STALE_ADMITTED_NAME,
    STALE_REJECTED_NAME,
    FleetSwarmParams,
    fleet_goodput_bps,
    run_fleet_swarm,
)


def rolling_restart_plan(
    n_gateways: int,
    first_at_s: float = 0.012,
    outage_s: float = 0.004,
    gap_s: float = 0.008,
) -> FaultPlan:
    """One :class:`GatewayRestart` per gateway, staggered ``gap_s`` apart.

    ``gap_s > outage_s`` keeps at most one gateway down at a time, so
    every drained client always has a live ring-failover target.  At
    ``gap_s == outage_s`` the fault injector drains the next gateway
    before it restores the previous one, so two are down for an
    instant.
    """
    return FaultPlan(
        "rolling-gateway-restart",
        [
            GatewayRestart(at=first_at_s + gateway * gap_s, gateway=gateway, outage_s=outage_s)
            for gateway in range(n_gateways)
        ],
    )


def fleet_rollout_spec(n_clients: int = 10_000, gateways: int = 4) -> DeploymentSpec:
    """The headline fleet described declaratively (spec + fault plan)."""
    return DeploymentSpec(
        setup="endbox_sgx",
        clients=n_clients,
        gateways=gateways,
        fault_plan=rolling_restart_plan(gateways),
        seed="fleet-rollout",
    )


#: clients in the packet-level oracle fleet
ORACLE_CLIENTS = 16


def swarm_params_from_spec(spec: DeploymentSpec, **overrides) -> FleetSwarmParams:
    """Flow-level parameters for ``spec``'s fleet (size, plan).

    ``overrides`` tune the swarm-only knobs (rates, horizon, rollout
    timeline) that have no packet-granularity counterpart in the spec.
    """
    params = FleetSwarmParams(
        n_clients=spec.clients,
        n_gateways=spec.gateways,
        fault_plan=spec.fault_plan,
    )
    return replace(params, **overrides) if overrides else params


def compare_fleets(spec: DeploymentSpec, params: FleetSwarmParams) -> Dict[str, Any]:
    """Run ``spec``'s fault plan through both fleets; return their decisions.

    The packet-level fleet is ``spec`` built, connected, armed with
    ``arm_faults()`` and run ``params.horizon_s`` on; the swarm runs
    ``params``, which must describe the same fleet (as
    :func:`swarm_params_from_spec` builds it).
    """
    world = spec.build()
    world.connect_all()
    world.arm_faults()
    world.sim.run(until=world.sim.now + params.horizon_s)
    packet = world.sim.telemetry.counter
    swarm = run_fleet_swarm(params).telemetry.value
    return {
        "clients": spec.clients,
        "packet": {
            "remaps": packet(REMAPS_NAME).value,
            "migrations": packet(MIGRATIONS_NAME).value,
            "stale_admitted_after_grace": sum(g.stale_admitted_after_grace for g in world.gateways),
        },
        "swarm": {
            "remaps": swarm(REMAPS_NAME),
            "migrations": swarm(MIGRATIONS_NAME),
            "stale_admitted_after_grace": swarm(STALE_ADMITTED_NAME),
        },
        "all_home": world.assignment == world.homes,
    }


def run_fleet_rollout(
    spec: Optional[DeploymentSpec] = None,
    params: Optional[FleetSwarmParams] = None,
) -> ExperimentResult:
    """Run the rolling-restart fleet scenario once, next to its oracle.

    ``metadata["stale_admitted_after_grace"]`` must be 0 and
    ``metadata["oracle"]`` must agree for the scenario to count as
    passing.
    """
    spec = spec or fleet_rollout_spec()
    params = params or swarm_params_from_spec(spec)
    sim = run_fleet_swarm(params)
    counter = sim.telemetry.value
    result = ExperimentResult(
        name="fleet_rollout",
        title="Fleet rollout: rolling gateway restarts under grace",
        x_label="clients",
        unit="Gbps",
        series={"admitted goodput": {params.n_clients: fleet_goodput_bps(sim, params) / 1e9}},
        metadata={
            "n_clients": params.n_clients,
            "n_gateways": params.n_gateways,
            "fault_plan": (params.fault_plan or FaultPlan("empty")).to_dict(),
            "digest": trace_digest(sim.telemetry),
            "migrations": counter(MIGRATIONS_NAME),
            "remaps": counter(REMAPS_NAME),
            "stale_rejected": counter(STALE_REJECTED_NAME),
            "stale_admitted_after_grace": counter(STALE_ADMITTED_NAME),
            "oracle": compare_fleets(
                replace(spec, clients=ORACLE_CLIENTS), replace(params, n_clients=ORACLE_CLIENTS)
            ),
        },
    )
    result.text = result.to_text() + "\n\n" + _render_counters(result.metadata)
    return result


def _render_counters(meta: Dict[str, Any]) -> str:
    """The digest, migration, stale and oracle lines under the table."""
    oracle = meta["oracle"]
    packet, swarm = oracle["packet"], oracle["swarm"]
    pairs = ", ".join(f"{key} {packet[key]} / {swarm[key]}" for key in packet)
    return (
        f"digest {meta['digest'][:16]}\n"
        f"migrations / remaps: {meta['migrations']} / {meta['remaps']}\n"
        f"stale_rejected after grace: {meta['stale_rejected']}; "
        f"stale_admitted_after_grace: {meta['stale_admitted_after_grace']}\n"
        f"oracle, packet-level / swarm at {oracle['clients']} clients: {pairs}; "
        f"every client home: {oracle['all_home']}"
    )

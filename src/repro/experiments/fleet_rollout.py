"""Fleet rollout at swarm scale: the multi-gateway headline scenario.

Runs 10k+ flow-level clients (:mod:`repro.fleet.swarm`) against a
hash-ring-balanced gateway fleet through a *rolling restart*: a
:class:`~repro.faults.FaultPlan` of :class:`~repro.faults.GatewayRestart`
events takes each gateway down in turn while a fleet-wide config
announcement's grace deadline (§III-E) is in flight.  The experiment
reports the determinism evidence the sharded engine promises — the
merged trace digest of the inline and fork runs must equal the serial
reference byte-for-byte — plus the fleet counters the acceptance bar
names: migrations during the restarts, stale rejections after the
deadline, and the ``stale_admitted`` tripwire at 0.

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
from typing import Any, Dict, Optional, Sequence

from repro.experiments.common import ExperimentResult
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
from repro.sim.parallel import ShardRunResult, fork_available


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
    :func:`swarm_params_from_spec` builds it), serially.
    """
    world = spec.build()
    world.connect_all()
    world.arm_faults()
    world.sim.run(until=world.sim.now + params.horizon_s)
    packet = world.sim.telemetry.counter
    swarm = run_fleet_swarm(params, n_shards=1, mode="serial")
    return {
        "clients": spec.clients,
        "packet": {
            "remaps": packet(REMAPS_NAME).value,
            "migrations": packet(MIGRATIONS_NAME).value,
            "stale_admitted_after_grace": sum(g.stale_admitted_after_grace for g in world.gateways),
        },
        "swarm": {
            "remaps": swarm.counter(REMAPS_NAME),
            "migrations": swarm.counter(MIGRATIONS_NAME),
            "stale_admitted_after_grace": swarm.counter(STALE_ADMITTED_NAME),
        },
        "all_home": world.assignment == world.homes,
    }


def run_fleet_rollout(
    spec: Optional[DeploymentSpec] = None,
    n_shards: int = 5,
    modes: Sequence[str] = ("inline", "fork"),
    params: Optional[FleetSwarmParams] = None,
) -> ExperimentResult:
    """Run the rolling-restart fleet scenario in every requested mode.

    Each sharded mode is compared against the serial reference digest;
    ``metadata["digest_matches_serial"]`` must be all-True and
    ``metadata["stale_admitted_after_grace"]`` must be 0 for the
    scenario to count as passing; ``metadata["oracle"]`` must agree.
    """
    spec = spec or fleet_rollout_spec()
    params = params or swarm_params_from_spec(spec)
    serial = run_fleet_swarm(params, n_shards, mode="serial")
    reference = serial.trace_digest()
    results: Dict[str, ShardRunResult] = {"serial": serial}
    skipped = []
    for mode in modes:
        if mode == "fork" and not fork_available():
            skipped.append(mode)
            continue
        results[mode] = run_fleet_swarm(params, n_shards, mode=mode)
    digest_ok = {
        mode: result.trace_digest() == reference for mode, result in results.items()
    }
    goodput = {mode: fleet_goodput_bps(result, params) for mode, result in results.items()}
    result = ExperimentResult(
        name="fleet_rollout",
        title="Fleet rollout: rolling gateway restarts under grace (sharded)",
        x_label="runner mode",
        unit="Gbps",
        series={"admitted goodput": {mode: bps / 1e9 for mode, bps in goodput.items()}},
        metadata={
            "n_clients": params.n_clients,
            "n_gateways": params.n_gateways,
            "n_shards": n_shards,
            "fault_plan": (params.fault_plan or FaultPlan("empty")).to_dict(),
            "digest": reference,
            "digest_matches_serial": digest_ok,
            "modes_skipped": skipped,
            "migrations": serial.counter(MIGRATIONS_NAME),
            "remaps": serial.counter(REMAPS_NAME),
            "stale_rejected": serial.counter(STALE_REJECTED_NAME),
            "stale_admitted_after_grace": serial.counter(STALE_ADMITTED_NAME),
            "oracle": compare_fleets(
                replace(spec, clients=ORACLE_CLIENTS), replace(params, n_clients=ORACLE_CLIENTS)
            ),
        },
    )
    result.text = result.to_text() + "\n\n" + _render_counters(result.metadata)
    return result


def _render_counters(meta: Dict[str, Any]) -> str:
    """The digest, migration, stale and oracle lines under the table."""
    matches = ", ".join(f"{mode}: {ok}" for mode, ok in meta["digest_matches_serial"].items())
    skipped = f" (skipped: {', '.join(meta['modes_skipped'])})" if meta["modes_skipped"] else ""
    oracle = meta["oracle"]
    packet, swarm = oracle["packet"], oracle["swarm"]
    pairs = ", ".join(f"{key} {packet[key]} / {swarm[key]}" for key in packet)
    return (
        f"digest {meta['digest'][:16]}: matches serial {{{matches}}}{skipped}\n"
        f"migrations / remaps: {meta['migrations']} / {meta['remaps']}\n"
        f"stale_rejected after grace: {meta['stale_rejected']}; "
        f"stale_admitted_after_grace: {meta['stale_admitted_after_grace']}\n"
        f"oracle, packet-level / swarm at {oracle['clients']} clients: {pairs}; "
        f"every client home: {oracle['all_home']}"
    )

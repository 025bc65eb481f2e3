"""Multi-gateway VPN fleets behind a declarative :class:`DeploymentSpec`.

EndBox names load balancing as a core middlebox function (§V-B) but the
paper's evaluation runs a single VPN gateway.  This package turns the
reproduction into a horizontal-scale deployment, the shape Slick
demonstrates for shielded Click instances:

* :class:`~repro.fleet.spec.DeploymentSpec` — the plain-data, JSON-
  round-trippable description of a whole world (topology, gateway
  count, use-case pipeline, client population, fault plan, seed), in
  the same design language as
  :class:`~repro.faults.plan.FaultPlan`, built with ``spec.build()``.
* :class:`~repro.fleet.balancer.HashRing` — consistent-hash
  client→gateway assignment, ring failover around down gateways, and
  the placement rule both fleets migrate by.
* :class:`~repro.fleet.deployment.FleetDeployment` — the built world:
  N gateways, fleet-wide config rollouts (per-version grace deadlines
  hold across every gateway) and client migration, which is an OpenVPN
  failover: the client re-handshakes with its new gateway and keeps its
  enclave and configuration version.
* :mod:`repro.fleet.swarm` — the flow-level client swarm and fleet
  dispatcher of the 10k-client rolling-restart scenario, run in one
  simulator.
"""

from repro.fleet.balancer import HashRing
from repro.fleet.deployment import FleetDeployment, build_fleet
from repro.fleet.spec import DeploymentSpec, DeploymentSpecError

__all__ = [
    "DeploymentSpec",
    "DeploymentSpecError",
    "FleetDeployment",
    "HashRing",
    "build_fleet",
]

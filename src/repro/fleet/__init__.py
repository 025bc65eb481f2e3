"""Multi-gateway VPN fleets behind a declarative :class:`DeploymentSpec`.

EndBox names load balancing as a core middlebox function (§V-B) but the
paper's evaluation runs a single VPN gateway.  This package turns the
reproduction into a horizontal-scale deployment, the shape Slick
demonstrates for shielded Click instances:

* :class:`~repro.fleet.spec.DeploymentSpec` — the plain-data, JSON-
  round-trippable description of a whole world (topology, gateway
  count, balancer policy, use-case pipeline, client population, fault
  plan, telemetry scoping), in the same design language as
  :class:`~repro.faults.plan.FaultPlan`, built with ``spec.build()``.
* :class:`~repro.fleet.balancer.HashRing` /
  :class:`~repro.fleet.balancer.RoundRobinBalancer` — consistent-hash
  (and RoundRobinSwitch-driven) client→gateway assignment.
* :class:`~repro.fleet.deployment.FleetDeployment` — the built world: a
  superset of :class:`~repro.core.scenarios.EndBoxDeployment` with N
  gateways, fleet-wide config rollouts (per-version grace deadlines
  hold across every gateway) and sealed-state client migration.
* :mod:`repro.fleet.swarm` — the flow-level client swarms and fleet
  dispatcher of the 10k-client rolling-restart scenario, the one
  scenario on the sharded runner.
"""

from repro.fleet.balancer import Balancer, HashRing, RoundRobinBalancer, make_balancer
from repro.fleet.deployment import FleetDeployment, build_fleet
from repro.fleet.spec import BALANCER_POLICIES, DeploymentSpec, DeploymentSpecError

__all__ = [
    "BALANCER_POLICIES",
    "Balancer",
    "DeploymentSpec",
    "DeploymentSpecError",
    "FleetDeployment",
    "HashRing",
    "RoundRobinBalancer",
    "build_fleet",
    "make_balancer",
]

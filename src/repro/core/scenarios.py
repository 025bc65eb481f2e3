"""Deployment dataclasses and use-case tables (§II-A, §V-B).

The builder itself lives behind :class:`repro.fleet.DeploymentSpec` — a
declarative, JSON-round-trippable description of a whole simulated
world.  ``spec.build()`` assembles the topology, IAS, CA, attested
client enclaves, the EndBox (or baseline) VPN gateway fleet,
configuration file server and internal service hosts for any of the
evaluation setups:

* ``"vanilla"``        — unmodified OpenVPN, no middlebox,
* ``"openvpn_click"``  — OpenVPN with server-side Click instances,
* ``"endbox_sgx"``     — EndBox, enclave in hardware mode,
* ``"endbox_sim"``     — EndBox, enclave in SDK simulation mode,

crossed with the five middlebox use cases (NOP/LB/FW/IDPS/DDoS) and the
two deployment scenarios:

* ``"enterprise"`` — data channel encrypted, configurations encrypted,
* ``"isp"``        — configurations inspectable by customers; data
  channel encryption optional (``isp_no_encryption`` applies the §IV-A
  traffic-protection optimisation).

This module keeps the use-case configuration table, the
:class:`ClientConnectError` that ``connect_all`` raises, and the chaos
rollout scenario; the built world is a
:class:`~repro.fleet.deployment.FleetDeployment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro import telemetry
from repro.click import configs as click_configs
from repro.ids.community_rules import ruleset_text

MANAGED_NET = "10.0.0.0/16"
TUNNEL_NET = "10.8.0.0/24"

SETUPS = ("vanilla", "openvpn_click", "endbox_sgx", "endbox_sim")


def use_case_configs(use_case: str, server_side: bool) -> Tuple[str, str]:
    """(click config text, ruleset text) for a use case."""
    rules = ""
    if use_case == "NOP":
        config = click_configs.nop_config()
    elif use_case == "LB":
        config = click_configs.lb_config()
    elif use_case == "FW":
        config = click_configs.firewall_config()
    elif use_case == "IDPS":
        config = click_configs.idps_config()
        rules = ruleset_text()
    elif use_case == "DDoS":
        if server_side:
            config = click_configs.ddos_config_untrusted(rate_bps=1e9)
        else:
            config = click_configs.ddos_config(rate_bps=1e9)
        rules = ruleset_text()
    else:
        raise ValueError(f"unknown use case {use_case!r}")
    return config, rules


class ClientConnectError(RuntimeError):
    """``connect_all``'s deadline passed with clients still unconnected.

    Names every failed client instead of silently proceeding (or
    reporting only the first); ``failed`` carries the host names and
    ``deadline`` the simulated time that was waited for.
    """

    def __init__(self, failed: List[str], deadline: float) -> None:
        self.failed = list(failed)
        self.deadline = deadline
        super().__init__(
            f"{len(self.failed)} client(s) not connected by t={deadline:g}s: "
            + ", ".join(self.failed)
        )


@dataclass
class ChaosRolloutResult:
    """Outcome of :func:`run_chaos_rollout`.

    ``converged`` means every client finished on ``target_version``;
    ``stale_admitted_after_grace`` is the server-side tripwire and must
    be 0 — a stale client's data admitted after its grace deadline would
    be exactly the policy violation the rollout machinery exists to
    prevent.  ``trace_digest`` is the telemetry digest: the same seed +
    plan must reproduce it byte-for-byte.
    """

    converged: bool
    target_version: int
    final_versions: List[int]
    stale_admitted_after_grace: int
    reconnects: List[int]
    client_crashes: List[int]
    packets_delivered: int
    config_fetch_retries: int
    timeline: List[dict]
    trace_digest: str


def default_chaos_plan(n_clients: int):
    """The stock chaos schedule used by :func:`run_chaos_rollout`.

    Times are relative to arming (just after all tunnels are up):

    * ``0.5`` — 15 % loss on client 0's link for 4 s,
    * ``0.6`` — client 1 crashes; enclave destroyed, restored from
      sealed state after a 10 s outage — *past* the first rollout's
      grace deadline, so it must come back through the lockout-recovery
      path (fetch ``/configs/latest``),
    * ``1.0`` — config file server answers 503 for 2.5 s (the rollout is
      announced at 1.0, so every client's first fetch hits the outage
      and must retry with backoff),
    * ``3.0`` — VPN server restart, 1 s outage, session tables lost,
    * ``6.0`` — client 2's link partitioned for 2 s.

    Events referencing clients the deployment doesn't have are dropped,
    so the plan scales down with ``n_clients``.
    """
    from repro.faults import (
        ClientCrash,
        ConfigServerOutage,
        FaultPlan,
        LinkLoss,
        LinkPartition,
        ServerRestart,
    )

    events = [
        LinkLoss(at=0.5, link="client-0", rate=0.15, duration=4.0),
        ClientCrash(at=0.6, client=1, outage_s=10.0),
        ConfigServerOutage(at=1.0, duration=2.5),
        ServerRestart(at=3.0, outage_s=1.0),
        LinkPartition(at=6.0, link="client-2", duration=2.0),
    ]
    kept = []
    for event in events:
        client = getattr(event, "client", None)
        link = getattr(event, "link", "")
        if client is not None and client >= n_clients:
            continue
        if link.startswith("client-") and int(link.split("-")[1]) >= n_clients:
            continue
        kept.append(event)
    return FaultPlan("chaos-rollout", kept)


def run_chaos_rollout(
    n_clients: int = 3,
    use_case: str = "NOP",
    plan=None,
    run_s: float = 20.0,
    ping_interval: float = 0.25,
    charge_cpu: bool = False,
    seed: bytes = b"chaos-rollout",
):
    """A configuration rollout under churn (faults + restarts).

    Builds an ``endbox_sgx`` deployment from a
    :class:`~repro.fleet.DeploymentSpec`, connects all tunnels, arms a
    :class:`~repro.faults.plan.FaultPlan` (``plan``, or
    :func:`default_chaos_plan`), then publishes two configuration
    versions while the faults play out: version 2 at +1.0 s with an
    8 s grace period and version 3 at +5.0 s with a 30 s grace period.
    The back-to-back announcement is deliberate — with the old single
    ``grace_deadline`` the second announcement would re-open admission
    for clients that had already expired under the first.

    Success criteria (returned, asserted by tests): every client
    converges to version 3, and the server admits **zero** stale-version
    data packets after the relevant grace deadline.
    """
    from repro.fleet import DeploymentSpec

    with telemetry.session(recording=True):
        deployment = DeploymentSpec(
            setup="endbox_sgx",
            use_case=use_case,
            clients=n_clients,
            ping_interval=ping_interval,
            charge_cpu=charge_cpu,
            seed=seed.decode("latin-1"),
        ).build()
    sim = deployment.sim

    # importing lazily keeps repro.core importable without repro.faults
    # (and avoids the module-level cycle: faults.injector imports
    # repro.core for the enclave rebuild path)
    from repro.faults import FaultInjector, trace_digest

    deployment.connect_all(until=10.0)
    t0 = sim.now

    from repro.netsim.traffic import UdpSink, UdpTrafficSource

    sink = UdpSink(deployment.internal, port=4242)
    sources = []
    for host in deployment.client_hosts:
        source = UdpTrafficSource(
            host, deployment.internal.address, 4242, rate_bps=4e5, packet_bytes=400
        )
        source.start()
        sources.append(source)

    injector = FaultInjector.from_deployment(deployment)
    injector.arm(plan if plan is not None else default_chaos_plan(n_clients))

    config, rules = use_case_configs(use_case, server_side=False)
    target_version = 3

    def publish_at(delay: float, version: int, grace_s: float):
        yield sim.timeout(delay)
        bundle = deployment.publisher.build_bundle(version, config, rules, encrypt=True)
        deployment.publisher.publish(
            bundle, deployment.config_server, deployment.server, grace_s
        )

    sim.process(publish_at(1.0, 2, 8.0), name="publish-v2")
    sim.process(publish_at(5.0, 3, 30.0), name="publish-v3")

    sim.run(until=t0 + run_s)
    for source in sources:
        source.stop()

    final_versions = [client.config_version for client in deployment.clients]
    return ChaosRolloutResult(
        converged=all(v == target_version for v in final_versions),
        target_version=target_version,
        final_versions=final_versions,
        stale_admitted_after_grace=deployment.server.stale_admitted_after_grace,
        reconnects=[client.reconnects for client in deployment.clients],
        client_crashes=[client.crashes for client in deployment.clients],
        packets_delivered=sink.packets,
        config_fetch_retries=sum(c.config_fetch_retries for c in deployment.clients),
        timeline=list(injector.timeline),
        trace_digest=trace_digest(sim.telemetry),
    )

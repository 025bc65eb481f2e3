"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`.

One simulation process per event: it sleeps until the event's ``at``
offset, applies the fault through the target component's public fault
hooks (``Link.set_down``, ``OpenVpnServer.begin_outage``,
``OpenVpnClient.suspend``, ``ConfigFileServer.set_down``,
``EnclavePageCache.allocate``, ...), holds it for the event's window and
then restores the previous state.  Every applied event is recorded via
``repro.telemetry`` (a ``faults.injector.events`` counter, a per-kind
span covering the fault window when recording is on) and appended to
the injector's plain-data ``timeline``, so experiments can report fault
schedules next to their results.

Determinism: the injector consumes no randomness and no wall clock;
everything is driven by the simulated clock, so the same plan against
the same seeded world yields the byte-identical telemetry trace —
compare with :func:`trace_digest`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.crypto.hashes import sha256
from repro.faults.plan import (
    ClientCrash,
    ConfigServerOutage,
    EpcPressure,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    GatewayRestart,
    LatencySpike,
    LinkLoss,
    LinkPartition,
    ServerRestart,
)
from repro.telemetry import names as _names
from repro.telemetry.export import to_json
from repro.telemetry.registry import Registry

_names.register("faults.injector.events", "counter", "events", "fault events applied")
_names.register("faults.injector.plans", "counter", "plans", "fault plans armed")

#: event kind -> span name covering the fault window.
SPAN_NAMES: Dict[str, str] = {
    LinkLoss.kind: _names.register("faults.link.loss", "span", "seconds", "loss window on a link"),
    LinkPartition.kind: _names.register(
        "faults.link.partition", "span", "seconds", "partition window on a link"
    ),
    LatencySpike.kind: _names.register(
        "faults.link.latency", "span", "seconds", "latency-spike window on a link"
    ),
    ServerRestart.kind: _names.register(
        "faults.server.restart", "span", "seconds", "VPN-server outage window"
    ),
    GatewayRestart.kind: _names.register(
        "faults.gateway.restart", "span", "seconds", "fleet gateway drain + outage window"
    ),
    ClientCrash.kind: _names.register(
        "faults.client.crash", "span", "seconds", "client crash/restore window"
    ),
    ConfigServerOutage.kind: _names.register(
        "faults.config.outage", "span", "seconds", "config file-server outage window"
    ),
    EpcPressure.kind: _names.register(
        "faults.epc.pressure", "span", "seconds", "EPC pressure window"
    ),
}

#: owner label used for EPC pressure allocations.
_EPC_OWNER = "faults:epc-pressure"


class FaultInjectionError(RuntimeError):
    """A plan event cannot be applied to this world (missing target)."""


def trace_digest(registry: Registry) -> str:
    """Hex digest of the registry's canonical telemetry artifact.

    The whole snapshot is hashed: it must be byte-identical for the same
    seed + plan.
    """
    return sha256(to_json(registry.snapshot()).encode()).hex()


class FaultInjector:
    """Applies a :class:`FaultPlan` to a simulated world.

    Parameters name the targets each event kind needs; all are optional
    — arming a plan that references a missing target raises
    :class:`FaultInjectionError` up front, not mid-run.  Use
    :meth:`from_deployment` to wire a full
    :class:`~repro.core.scenarios.EndBoxDeployment` in one call.
    """

    def __init__(
        self,
        sim,
        topo=None,
        links: Optional[Dict[str, Any]] = None,
        server=None,
        clients: Sequence[Any] = (),
        config_server=None,
        platforms: Sequence[Any] = (),
        storages: Sequence[Any] = (),
        registry: Optional[Registry] = None,
        gateways: Sequence[Any] = (),
        fleet=None,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.links = dict(links or {})
        self.server = server
        self.clients = list(clients)
        self.config_server = config_server
        self.platforms = list(platforms)
        self.storages = list(storages)
        #: fleet gateways for GatewayRestart events; defaults to the
        #: single wired server when no explicit fleet is given
        self.gateways = list(gateways) if gateways else ([server] if server else [])
        #: object with on_gateway_outage/on_gateway_restored hooks (a
        #: FleetDeployment, or any duck-typed drain coordinator)
        self.fleet = fleet
        self.registry = registry if registry is not None else sim.telemetry
        #: plain-data record of applied events: {"at", "kind", ...}.
        self.timeline: List[Dict[str, Any]] = []
        self.events_applied = 0
        self._tm_events = self.registry.counter("faults.injector.events")
        self._tm_plans = self.registry.counter("faults.injector.plans")

    @classmethod
    def from_deployment(cls, deployment, registry: Optional[Registry] = None) -> "FaultInjector":
        """Wire an injector to every target a deployment exposes.

        Fleet deployments additionally wire their gateway list and the
        drain hooks (``on_gateway_outage``/``on_gateway_restored``), so
        ``GatewayRestart`` events migrate clients instead of dropping
        them.
        """
        return cls(
            sim=deployment.sim,
            topo=deployment.topo,
            server=deployment.server,
            clients=deployment.clients,
            config_server=deployment.config_server,
            platforms=deployment.platforms,
            storages=deployment.storages,
            registry=registry,
            gateways=getattr(deployment, "gateways", ()),
            fleet=deployment if hasattr(deployment, "on_gateway_outage") else None,
        )

    # ------------------------------------------------------------------
    # target resolution
    # ------------------------------------------------------------------
    def _link(self, ref: str):
        """Resolve a link by explicit name, topology link name or host name."""
        if ref in self.links:
            return self.links[ref]
        if self.topo is not None:
            name = ref[len("link:"):] if ref.startswith("link:") else ref
            host = self.topo.hosts.get(name)
            if host is not None and host.stack.interfaces:
                return host.stack.interfaces[0].link
        raise FaultInjectionError(f"no link {ref!r} in this world")

    def _client(self, index: int):
        """Resolve a client (and its platform/storage) by index."""
        if not 0 <= index < len(self.clients):
            raise FaultInjectionError(f"no client #{index} in this world")
        return self.clients[index]

    def _validate(self, event: FaultEvent) -> None:
        """Fail fast (at arm time) when an event's target is missing."""
        if isinstance(event, (LinkLoss, LinkPartition, LatencySpike)):
            self._link(event.link)
        elif isinstance(event, ServerRestart):
            if self.server is None:
                raise FaultInjectionError("plan restarts the VPN server, but none is wired")
        elif isinstance(event, GatewayRestart):
            if not 0 <= event.gateway < len(self.gateways):
                raise FaultInjectionError(
                    f"no gateway #{event.gateway} in this world "
                    f"({len(self.gateways)} wired)"
                )
        elif isinstance(event, ClientCrash):
            self._client(event.client)
            if not (event.client < len(self.platforms) and event.client < len(self.storages)):
                raise FaultInjectionError(
                    f"client #{event.client} has no SGX platform/sealed storage (not an EndBox client?)"
                )
        elif isinstance(event, ConfigServerOutage):
            if self.config_server is None:
                raise FaultInjectionError("plan takes the config server down, but none is wired")
        elif isinstance(event, EpcPressure):
            if event.client is None:
                if not self.platforms:
                    raise FaultInjectionError("plan applies EPC pressure, but no platforms are wired")
            elif event.client >= len(self.platforms):
                raise FaultInjectionError(f"no platform #{event.client} in this world")

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, plan: FaultPlan) -> "FaultInjector":
        """Schedule every event of ``plan`` relative to the current time.

        Validates all targets first, then starts one process per event.
        Returns self, so ``FaultInjector(...).arm(plan)`` chains.
        """
        if not isinstance(plan, FaultPlan):
            raise FaultPlanError(f"not a FaultPlan: {plan!r}")
        for event in plan.events:
            self._validate(event)
        self._tm_plans.inc()
        for index, event in enumerate(plan.events):
            self.sim.process(
                self._run_event(event), name=f"fault:{plan.name}:{index}:{event.kind}"
            )
        return self

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------
    def _record(self, event: FaultEvent) -> None:
        """Count the event and append it to the plain-data timeline."""
        self.events_applied += 1
        self._tm_events.inc()
        entry = event.to_dict()
        entry["applied_at"] = self.sim.now
        self.timeline.append(entry)

    def _run_event(self, event: FaultEvent):
        """Process generator: wait for the offset, apply, hold, restore."""
        if event.at > 0:
            yield self.sim.timeout(event.at)
        self._record(event)
        with self.registry.span(SPAN_NAMES[event.kind]):
            if isinstance(event, LinkLoss):
                yield from self._apply_link_loss(event)
            elif isinstance(event, LinkPartition):
                yield from self._apply_partition(event)
            elif isinstance(event, LatencySpike):
                yield from self._apply_latency(event)
            elif isinstance(event, ServerRestart):
                yield from self._apply_server_restart(event)
            elif isinstance(event, GatewayRestart):
                yield from self._apply_gateway_restart(event)
            elif isinstance(event, ClientCrash):
                yield from self._apply_client_crash(event)
            elif isinstance(event, ConfigServerOutage):
                yield from self._apply_config_outage(event)
            elif isinstance(event, EpcPressure):
                yield from self._apply_epc_pressure(event)

    def _apply_link_loss(self, event: LinkLoss):
        """Raise a link's loss rate; restore the old rate after the window."""
        link = self._link(event.link)
        previous = link.loss_rate
        link.set_loss_rate(event.rate)
        if event.duration is not None:
            yield self.sim.timeout(event.duration)
            link.set_loss_rate(previous)

    def _apply_partition(self, event: LinkPartition):
        """Take a link down, then bring it back."""
        link = self._link(event.link)
        link.set_down(True)
        yield self.sim.timeout(event.duration)
        link.set_down(False)

    def _apply_latency(self, event: LatencySpike):
        """Raise a link's propagation latency for the window."""
        link = self._link(event.link)
        previous = link.latency_s
        link.set_latency(event.latency_s)
        yield self.sim.timeout(event.duration)
        link.set_latency(previous)

    def _apply_server_restart(self, event: ServerRestart):
        """Crash the VPN server (sessions lost); restart after the outage."""
        self.server.begin_outage()
        yield self.sim.timeout(event.outage_s)
        self.server.end_outage()

    def _apply_gateway_restart(self, event: GatewayRestart):
        """Rolling-restart step: drain, outage window, restore, re-home.

        When a fleet coordinator is wired its drain hook runs *before*
        the gateway goes down — a planned restart migrates the clients
        away first (sessions travel as exported records) — and its
        restore hook runs after the gateway is back.  Without a fleet
        this degrades to a plain server restart of that gateway.
        """
        gateway = self.gateways[event.gateway]
        if self.fleet is not None:
            self.fleet.on_gateway_outage(event.gateway)
        gateway.begin_outage()
        yield self.sim.timeout(event.outage_s)
        gateway.end_outage()
        if self.fleet is not None:
            self.fleet.on_gateway_restored(event.gateway)

    def _apply_client_crash(self, event: ClientCrash):
        """Crash a client, destroy its enclave, restore from sealed state.

        The restore path is the paper's §III-C restart: a *fresh* enclave
        of the same measured image is created on the same platform, the
        sealed credentials are unsealed (no new remote attestation), and
        the client re-handshakes via DPD.  In-RAM configuration state is
        gone, so the client restarts at version 1 and catches up through
        the normal (or lockout-recovery) update path.
        """
        from repro.core.enclave_app import EndBoxEnclave
        from repro.core.provisioning import restore_client

        client = self._client(event.client)
        platform = self.platforms[event.client]
        storage = self.storages[event.client]
        image = client.endbox.enclave.image
        mode = client.endbox.enclave.mode
        client.suspend()
        client.endbox.enclave.destroy()
        yield self.sim.timeout(event.outage_s)
        endbox = EndBoxEnclave.create(image, platform, mode=mode)
        restore_client(endbox, storage)
        client.rebuild_enclave(endbox)
        client.resume()

    def _apply_config_outage(self, event: ConfigServerOutage):
        """Take the configuration file server down for the window."""
        self.config_server.set_down(True)
        yield self.sim.timeout(event.duration)
        self.config_server.set_down(False)

    def _apply_epc_pressure(self, event: EpcPressure):
        """Allocate foreign EPC pages on the target platform(s)."""
        if event.client is None:
            platforms = list(self.platforms)
        else:
            platforms = [self.platforms[event.client]]
        for index, platform in enumerate(platforms):
            platform.epc.allocate(f"{_EPC_OWNER}:{index}", event.nbytes)
        yield self.sim.timeout(event.duration)
        for index, platform in enumerate(platforms):
            platform.epc.free(f"{_EPC_OWNER}:{index}")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def trace_digest(self) -> str:
        """Digest of this injector's registry (see module-level helper)."""
        return trace_digest(self.registry)

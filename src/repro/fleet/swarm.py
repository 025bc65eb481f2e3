"""Flow-level fleet scenario: 10k+ clients across a rolling gateway fleet.

This is the scenario the sharded runner (:mod:`repro.sim.parallel`)
exists for.  Each client shard models its clients as one
:class:`ClientSwarmSource`; every gateway of a multi-gateway fleet lives
on shard 0 behind a :class:`FleetDispatcher`:

* **balancing** — each client's home gateway comes from the same
  :class:`~repro.fleet.balancer.HashRing` the packet-level fleet uses,
  keyed by the stable ``"client-<gid>"`` identity;
* **rolling restarts** — gateway outages come from a declarative
  :class:`~repro.faults.FaultPlan` of
  :class:`~repro.faults.GatewayRestart` events.  At each drain and
  restore instant the dispatcher applies ``HashRing.moves``, the rule
  the packet-level ``FleetDeployment`` migrates by (its oracle in
  ``repro.experiments.fleet_rollout``), counting one remap and one
  migration per move; packets that arrive while every gateway is down
  are dropped.  The migrated client's re-handshake is not modeled;
* **grace rollouts (§III-E)** — one fleet-wide config announcement with
  a grace deadline; per-client adoption times are a deterministic
  function of the global client id, a configurable sliver of stragglers
  never adopts, and any packet still on the stale version after the
  deadline is rejected (``fleet.gateway.stale_rejected``).  The
  ``fleet.gateway.stale_admitted`` tripwire counts stale packets that
  *were* admitted after the deadline — it must stay 0.

Each swarm packet crosses to shard 0 as a ``(client_id, packet_bytes)``
frame payload, where ``client_id`` is the sending shard's local client
index.

Everything is counters (no trace records), all fleet state lives on
shard 0, and cross-shard frames arrive in the fabric's canonical order,
so serial / inline / fork runs of the same parameters merge to the
byte-identical trace digest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.faults.plan import FaultPlan, GatewayRestart
from repro.fleet.balancer import HashRing
from repro.sim import SimulationError, Simulator
from repro.sim.parallel import (
    CrossShardFabric,
    ShardContext,
    ShardPlan,
    ShardRunResult,
    run_serial,
    run_sharded,
)
from repro.telemetry import names as _names
from repro.telemetry.registry import Registry

PACKETS_NAME = _names.register(
    "netsim.swarm.packets", "counter", "packets", "packets emitted by swarm sources"
)
BYTES_NAME = _names.register(
    "netsim.swarm.bytes", "counter", "bytes", "payload bytes emitted by swarm sources"
)
STEPS_NAME = _names.register(
    "netsim.swarm.steps", "counter", "events", "client-side pipeline stages executed"
)
DELIVERED_NAME = _names.register(
    "netsim.swarm.delivered", "counter", "packets", "packets absorbed by swarm gateways"
)
DELIVERED_BYTES_NAME = _names.register(
    "netsim.swarm.delivered_bytes", "counter", "bytes", "payload bytes absorbed by swarm gateways"
)
WINDOW_BYTES_NAME = _names.register(
    "netsim.swarm.window_bytes", "counter", "bytes", "post-warmup bytes absorbed (throughput window)"
)
GATEWAY_STEPS_NAME = _names.register(
    "netsim.swarm.gateway_steps", "counter", "events", "gateway-side pipeline stages executed"
)
REMAPS_NAME = "fleet.balancer.remaps"
MIGRATIONS_NAME = "fleet.balancer.migrations"
STALE_REJECTED_NAME = "fleet.gateway.stale_rejected"
STALE_ADMITTED_NAME = "fleet.gateway.stale_admitted"


def _channel(shard: int) -> str:
    """Cross-shard channel carrying one client shard's swarm traffic."""
    return f"fleet.shard{shard}"


class ClientSwarmSource:
    """``n_clients`` identical constant-rate clients as one generator.

    Simulating every client at packet granularity costs several heap
    events per packet.  This source instead wakes once per ``tick_s``,
    computes how many packets the aggregate rate owes, runs the
    per-packet client pipeline as a plain loop (every packet is still
    touched, so the counters are exact, not extrapolated), and emits
    each packet onto ``egress`` with its exact timestamp ``t(i) =
    (i+1)/aggregate_pps`` — a product, never an accumulated sum — plus
    ``latency_s``.  Packets are attributed round-robin to the local
    client ids.  ``start()`` spawns the tick process; emission continues
    until the shard runner stops running windows.

    Lookahead safety: a packet due in the tick ending at ``now`` was
    emitted after ``now - tick_s``, so its delivery at ``t_emit +
    latency_s`` clears the next window bound whenever ``latency_s >=
    lookahead + tick_s``.  :func:`make_fleet_builder` uses ``tick_s =
    lookahead`` and ``latency_s = 2*lookahead``
    (:attr:`FleetSwarmParams.latency_s`).
    """

    def __init__(
        self,
        sim: Simulator,
        egress,
        n_clients: int,
        per_client_bps: float,
        packet_bytes: int,
        pipeline_steps: int,
        latency_s: float,
        tick_s: float,
    ) -> None:
        if n_clients < 1:
            raise SimulationError(f"swarm needs at least one client, got {n_clients}")
        self.sim = sim
        self.n_clients = n_clients
        self.packet_bytes = packet_bytes
        self.pipeline_steps = pipeline_steps
        self.latency_s = latency_s
        self.tick_s = tick_s
        self.aggregate_pps = n_clients * per_client_bps / (packet_bytes * 8)
        self._interval = 1.0 / self.aggregate_pps
        self._egress = egress
        self.emitted = 0
        registry = Registry.current()
        self._tm_packets = registry.counter(PACKETS_NAME)
        self._tm_bytes = registry.counter(BYTES_NAME)
        self._tm_steps = registry.counter(STEPS_NAME)

    def start(self) -> None:
        """Spawn the per-lookahead tick process that drives emission."""
        self.sim.process(self._run(), name="swarm.source")

    def _run(self):
        sim = self.sim
        emit = self._egress.emit
        interval = self._interval
        steps = self.pipeline_steps
        nbytes = self.packet_bytes
        latency = self.latency_s
        n_clients = self.n_clients
        while True:
            yield sim.timeout(self.tick_s)
            # packets the aggregate rate owes since the last tick (floor,
            # with a fuzz term so t_emit == now counts as due)
            due = int(sim.now / interval + 1e-9) - self.emitted
            if due <= 0:
                continue
            emitted = self.emitted
            work = 0
            for i in range(emitted, emitted + due):
                # the client-side pipeline, batched: each stage is real
                # per-packet work (counted exactly), not an engine event
                work += steps
                emit((i + 1) * interval + latency, (i % n_clients, nbytes))
            self.emitted += due
            self._tm_packets.inc(due)
            self._tm_bytes.inc(due * nbytes)
            self._tm_steps.inc(work)


@dataclass(frozen=True)
class FleetSwarmParams:
    """One fleet-rollout configuration (identical for every runner mode).

    The rollout model: version ``2`` is announced fleet-wide at
    ``announce_at_s`` with ``grace_s`` of grace.  Client ``gid`` adopts
    it at ``announce_at_s + adopt_base_s + (gid % adopt_spread_mod) *
    adopt_step_s`` — unless ``gid % stale_every == 0``, in which case it
    never adopts and its traffic is rejected once the deadline passes.
    Gateway outages come from ``fault_plan`` (``GatewayRestart`` events
    only; times are absolute simulation seconds here, since the swarm
    world starts at ``t=0``).
    """

    n_clients: int = 10_000
    n_gateways: int = 4
    per_client_bps: float = 2e6
    packet_bytes: int = 1500
    client_steps: int = 3  # encrypt, encapsulate, send
    gateway_steps: int = 2  # decrypt+check, forward
    lookahead_s: float = 200e-6
    horizon_s: float = 0.05
    warmup_s: float = 0.004
    announce_at_s: float = 0.005
    grace_s: float = 0.02
    adopt_base_s: float = 0.002
    adopt_spread_mod: int = 50
    adopt_step_s: float = 0.0002
    stale_every: int = 97  # 0 disables stragglers
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        """Validate sizes, rates and the rollout timeline."""
        if self.n_clients < 1:
            raise SimulationError(f"fleet swarm needs clients, got {self.n_clients}")
        if self.n_gateways < 1:
            raise SimulationError(f"fleet swarm needs gateways, got {self.n_gateways}")
        for name in ("per_client_bps", "lookahead_s", "horizon_s", "grace_s"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.packet_bytes < 1:
            raise SimulationError(f"packet_bytes must be >= 1, got {self.packet_bytes}")
        for name in ("warmup_s", "announce_at_s", "adopt_base_s", "adopt_step_s"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.adopt_spread_mod < 1:
            raise SimulationError(
                f"adopt_spread_mod must be >= 1, got {self.adopt_spread_mod}"
            )
        if self.stale_every < 0:
            raise SimulationError(f"stale_every must be >= 0, got {self.stale_every}")
        if self.fault_plan is not None:
            for event in self.fault_plan:
                if not isinstance(event, GatewayRestart):
                    raise SimulationError(
                        f"fleet swarm plans take GatewayRestart events only, got {event.kind!r}"
                    )
                if event.gateway >= self.n_gateways:
                    raise SimulationError(
                        f"GatewayRestart targets gateway {event.gateway} "
                        f"but the fleet has {self.n_gateways}"
                    )

    @property
    def latency_s(self) -> float:
        """Client→gateway one-way latency; ``2×lookahead`` clears every
        window bound (see the lookahead-safety note on
        :class:`ClientSwarmSource`)."""
        return 2 * self.lookahead_s

    @property
    def measure_s(self) -> float:
        """Length of the post-warmup throughput window."""
        return self.horizon_s - self.warmup_s

    @property
    def grace_deadline_s(self) -> float:
        """Absolute time after which stale-version traffic is rejected."""
        return self.announce_at_s + self.grace_s

    def adopt_at_s(self, gid: int) -> Optional[float]:
        """When client ``gid`` adopts the announced version (None = never)."""
        if self.stale_every and gid % self.stale_every == 0:
            return None
        return self.announce_at_s + self.adopt_base_s + (gid % self.adopt_spread_mod) * self.adopt_step_s


class FleetDispatcher:
    """Shard-0 fleet: the restarts' migrations + per-packet admission.

    The migrations are decided once, at construction.  One batched
    ingress per client shard is walked packet by packet in the fabric's
    canonical order, checking only the §III-E grace deadline and whether
    any gateway is up, so serial, inline and fork runs count identically.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: CrossShardFabric,
        plan: ShardPlan,
        params: FleetSwarmParams,
    ) -> None:
        self.sim = sim
        self.params = params
        self.balancer = HashRing(params.n_gateways)
        #: home gateway per global client id (the ring's steady state)
        self.homes: List[int] = [
            self.balancer.pick(f"client-{gid}") for gid in range(params.n_clients)
        ]
        registry = Registry.current()
        self._tm_delivered = registry.counter(DELIVERED_NAME)
        self._tm_delivered_bytes = registry.counter(DELIVERED_BYTES_NAME)
        self._tm_window_bytes = registry.counter(WINDOW_BYTES_NAME)
        self._tm_steps = registry.counter(GATEWAY_STEPS_NAME)
        self._tm_stale_rejected = registry.counter(STALE_REJECTED_NAME)
        # the tripwire is created eagerly so a 0 shows up in every digest
        self._tm_stale_admitted = registry.counter(STALE_ADMITTED_NAME)
        moves, self._dark = self._place_restarts()
        registry.counter(REMAPS_NAME).inc(moves)
        registry.counter(MIGRATIONS_NAME).inc(moves)
        for shard in sorted(set(plan.client_shards)):
            clients = plan.clients_on(shard)
            if not clients:
                continue
            # the batch callback translates shard-local to global ids
            fabric.bind_ingress(_channel(shard), functools.partial(self._on_batch, clients[0]))

    def _place_restarts(self) -> Tuple[int, List[Tuple[float, float]]]:
        """Apply the placement rule at each drain and restore instant up to
        the horizon.

        Returns the moves and the ``[start, end)`` windows with every
        gateway down.  Instants run in the fault injector's order: by time,
        then drains (in plan order) before restores (in drain order).
        """
        params = self.params
        events = sorted(params.fault_plan or (), key=lambda event: event.at)
        instants = [(event.at, False, event.gateway) for event in events]
        instants += [(event.at + event.outage_s, True, event.gateway) for event in events]
        instants.sort(key=lambda instant: instant[:2])
        current = list(self.homes)
        down: Set[int] = set()
        moves = 0
        dark: List[Tuple[float, float]] = []
        dark_since: Optional[float] = None
        for at, restore, gateway in instants:
            if at > params.horizon_s:
                break
            if restore:
                down.discard(gateway)
            else:
                down.add(gateway)
            for client, place in self.balancer.moves(self.homes, current, down):
                current[client] = place
                moves += 1
            if len(down) == params.n_gateways:
                if dark_since is None:
                    dark_since = at
            elif dark_since is not None:
                dark.append((dark_since, at))
                dark_since = None
        if dark_since is not None:
            dark.append((dark_since, float("inf")))
        return moves, dark

    def _on_batch(self, base: int, frames) -> None:
        params = self.params
        deadline = params.grace_deadline_s
        warmup = params.warmup_s
        steps = params.gateway_steps
        dark = self._dark
        delivered = 0
        total_bytes = 0
        window_bytes = 0
        work = 0
        stale_rejected = 0
        stale_admitted = 0
        for deliver_at, _emit_index, payload in frames:
            local, nbytes = payload
            if dark and any(start <= deliver_at < end for start, end in dark):
                continue  # every gateway is down: nowhere to land
            # §III-E currency check: stale only once the deadline passed
            current_version = True
            if deliver_at >= deadline:
                adopt_at = params.adopt_at_s(base + local)
                current_version = adopt_at is not None and deliver_at >= adopt_at
            if not current_version:
                stale_rejected += 1
                continue
            work += steps
            delivered += 1
            total_bytes += nbytes
            if deliver_at >= warmup:
                window_bytes += nbytes
            if not current_version:  # pragma: no cover - tripwire
                stale_admitted += 1
        self._tm_delivered.inc(delivered)
        self._tm_delivered_bytes.inc(total_bytes)
        if window_bytes:
            self._tm_window_bytes.inc(window_bytes)
        self._tm_steps.inc(work)
        if stale_rejected:
            self._tm_stale_rejected.inc(stale_rejected)
        if stale_admitted:  # pragma: no cover - tripwire
            self._tm_stale_admitted.inc(stale_admitted)


def make_fleet_builder(params: FleetSwarmParams):
    """Builder closure for the sharded runner (also used serially)."""

    def build(ctx: ShardContext) -> None:
        plan = ctx.plan
        if ctx.is_gateway:
            FleetDispatcher(ctx.sim, ctx.fabric, plan, params)
        if ctx.clients:
            egress = ctx.fabric.open_egress(_channel(ctx.shard_index), 0)
            ClientSwarmSource(
                ctx.sim,
                egress,
                n_clients=len(ctx.clients),
                per_client_bps=params.per_client_bps,
                packet_bytes=params.packet_bytes,
                pipeline_steps=params.client_steps,
                latency_s=params.latency_s,
                tick_s=plan.lookahead_s,
            ).start()

    return build


def run_fleet_swarm(
    params: FleetSwarmParams, n_shards: int, mode: str = "auto"
) -> ShardRunResult:
    """Run the fleet rollout scenario sharded ``n_shards`` ways.

    ``mode="serial"`` runs the identical builder in one plain
    :class:`Simulator` via :func:`run_serial` — the digest reference the
    inline and fork runs must reproduce byte-for-byte.
    """
    plan = ShardPlan.partition(params.n_clients, n_shards, params.lookahead_s)
    builder = make_fleet_builder(params)
    if mode == "serial":
        return run_serial(builder, plan, params.horizon_s)
    return run_sharded(builder, plan, params.horizon_s, mode=mode)


def fleet_goodput_bps(result: ShardRunResult, params: FleetSwarmParams) -> float:
    """Post-warmup aggregate goodput admitted across the whole fleet."""
    return result.counter(WINDOW_BYTES_NAME) * 8 / params.measure_s

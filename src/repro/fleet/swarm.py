"""Flow-level fleet scenario: 10k+ clients across a rolling gateway fleet.

The scenario runs in one plain :class:`~repro.sim.engine.Simulator`:
one :class:`ClientSwarmSource` models every client, and the whole
multi-gateway fleet sits behind one :class:`FleetDispatcher`:

* **balancing** — each client's home gateway comes from the same
  :class:`~repro.fleet.balancer.HashRing` the packet-level fleet uses,
  keyed by the stable ``"client-<id>"`` identity;
* **rolling restarts** — gateway outages come from a declarative
  :class:`~repro.faults.FaultPlan` of
  :class:`~repro.faults.GatewayRestart` events.  At each drain and
  restore instant the dispatcher applies ``HashRing.moves``, the rule
  the packet-level ``FleetDeployment`` migrates by (its oracle in
  ``repro.experiments.fleet_rollout``), counting one remap and one
  migration per move; packets that arrive while every gateway is down
  are dropped and counted (``fleet.drops.all_gateways_down``).  The
  migrated client's re-handshake is not modeled;
* **grace rollouts (§III-E)** — one fleet-wide config announcement with
  a grace deadline; per-client adoption times are a deterministic
  function of the client id, a configurable sliver of stragglers never
  adopts, and any packet still on the stale version after the deadline
  is rejected (``fleet.gateway.stale_rejected``).  The dispatcher
  admits no stale packet, so its ``fleet.gateway.stale_admitted``
  counter is 0 by construction; the measured tripwire is the
  packet-level ``OpenVpnServer.stale_admitted_after_grace``.

Everything is counters (no trace records), so
:func:`repro.faults.trace_digest` of a run's registry is a pure
function of its :class:`FleetSwarmParams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.faults.plan import FaultPlan, GatewayRestart
from repro.fleet.balancer import HashRing
from repro.sim import SimulationError, Simulator
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
ALL_DOWN_DROPS_NAME = "fleet.drops.all_gateways_down"

#: how often the swarm source wakes to emit what the aggregate rate owes
TICK_S = 200e-6

#: one tick's packets: ``(deliver_at, client_id)`` in emission order
Frames = List[Tuple[float, int]]


class ClientSwarmSource:
    """``params.n_clients`` identical constant-rate clients as one process.

    Simulating every client at packet granularity costs several heap
    events per packet.  This source instead wakes once per
    :data:`TICK_S`, computes how many packets the aggregate rate
    owes, and runs the per-packet client pipeline as a plain loop (every
    packet is still touched, so the counters are exact, not
    extrapolated).  Packet ``i`` is attributed round-robin to a client
    id and delivered at ``(i+1)/aggregate_pps + latency_s`` — a product,
    never an accumulated sum.  A tick's packets reach ``deliver`` as one
    list of frames, in one heap entry at the first frame's delivery
    time.  ``start()`` spawns the tick process; it emits until the run
    stops.
    """

    def __init__(
        self, sim: Simulator, params: FleetSwarmParams, deliver: Callable[[Frames], None]
    ) -> None:
        self.sim = sim
        self.params = params
        aggregate_pps = params.n_clients * params.per_client_bps / (params.packet_bytes * 8)
        self._interval = 1.0 / aggregate_pps
        self._deliver = deliver
        self.emitted = 0
        registry = Registry.current()
        self._tm_packets = registry.counter(PACKETS_NAME)
        self._tm_bytes = registry.counter(BYTES_NAME)
        self._tm_steps = registry.counter(STEPS_NAME)

    def start(self) -> None:
        """Spawn the per-tick process that drives emission."""
        self.sim.process(self._run(), name="swarm.source")

    def _run(self):
        sim = self.sim
        params = self.params
        interval = self._interval
        latency = params.latency_s
        n_clients = params.n_clients
        while True:
            yield sim.timeout(TICK_S)
            # packets the aggregate rate owes since the last tick (floor,
            # with a fuzz term so t_emit == now counts as due)
            due = int(sim.now / interval + 1e-9) - self.emitted
            if due <= 0:
                continue
            emitted = self.emitted
            frames = [
                ((i + 1) * interval + latency, i % n_clients)
                for i in range(emitted, emitted + due)
            ]
            sim.schedule(frames[0][0] - sim.now, self._deliver, frames)
            self.emitted += due
            self._tm_packets.inc(due)
            self._tm_bytes.inc(due * params.packet_bytes)
            # the client-side pipeline, batched: each stage is real
            # per-packet work (counted exactly), not an engine event
            self._tm_steps.inc(due * params.client_steps)


@dataclass(frozen=True)
class FleetSwarmParams:
    """One fleet-rollout configuration.

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
        for name in ("per_client_bps", "horizon_s", "grace_s"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.packet_bytes < 1:
            raise SimulationError(f"packet_bytes must be >= 1, got {self.packet_bytes}")
        for name in ("warmup_s", "announce_at_s", "adopt_base_s", "adopt_step_s"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.warmup_s >= self.horizon_s:
            raise SimulationError(
                f"warmup_s ({self.warmup_s}) must end before horizon_s ({self.horizon_s}), "
                "or the throughput window is empty"
            )
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
        """Client→gateway one-way latency: two ticks."""
        return 2 * TICK_S

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
    """The whole fleet: the restarts' migrations + per-packet admission.

    The migrations are decided once, at construction.  Each batch of
    frames is walked packet by packet, checking only whether any gateway
    is up and the §III-E grace deadline.
    """

    def __init__(self, params: FleetSwarmParams) -> None:
        self.params = params
        self.balancer = HashRing(params.n_gateways)
        #: home gateway per client id (the ring's steady state)
        self.homes: List[int] = [
            self.balancer.pick(f"client-{gid}") for gid in range(params.n_clients)
        ]
        registry = Registry.current()
        self._tm_delivered = registry.counter(DELIVERED_NAME)
        self._tm_delivered_bytes = registry.counter(DELIVERED_BYTES_NAME)
        self._tm_window_bytes = registry.counter(WINDOW_BYTES_NAME)
        self._tm_steps = registry.counter(GATEWAY_STEPS_NAME)
        self._tm_stale_rejected = registry.counter(STALE_REJECTED_NAME)
        self._tm_dropped = registry.counter(ALL_DOWN_DROPS_NAME)
        # created eagerly so its 0 shows up in every digest: a stale
        # packet is always rejected, so nothing ever increments it
        registry.counter(STALE_ADMITTED_NAME)
        moves, self._dark = self._place_restarts()
        registry.counter(REMAPS_NAME).inc(moves)
        registry.counter(MIGRATIONS_NAME).inc(moves)

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

    def on_batch(self, frames: Frames) -> None:
        """Admit one tick's packets, each at its own delivery time."""
        params = self.params
        deadline = params.grace_deadline_s
        warmup = params.warmup_s
        nbytes = params.packet_bytes
        dark = self._dark
        delivered = 0
        window = 0
        dropped = 0
        stale_rejected = 0
        for deliver_at, client in frames:
            if dark and any(start <= deliver_at < end for start, end in dark):
                dropped += 1  # every gateway is down: nowhere to land
                continue
            # §III-E currency check: stale only once the deadline passed
            if deliver_at >= deadline:
                adopt_at = params.adopt_at_s(client)
                if adopt_at is None or deliver_at < adopt_at:
                    stale_rejected += 1
                    continue
            delivered += 1
            if deliver_at >= warmup:
                window += 1
        self._tm_delivered.inc(delivered)
        self._tm_delivered_bytes.inc(delivered * nbytes)
        if window:
            self._tm_window_bytes.inc(window * nbytes)
        self._tm_steps.inc(delivered * params.gateway_steps)
        if stale_rejected:
            self._tm_stale_rejected.inc(stale_rejected)
        if dropped:
            self._tm_dropped.inc(dropped)


def run_fleet_swarm(params: FleetSwarmParams) -> Simulator:
    """Run the fleet rollout scenario to ``params.horizon_s``.

    Returns the simulator: read counters through
    ``sim.telemetry.value(name)`` and the digest through
    ``repro.faults.trace_digest(sim.telemetry)``.
    """
    sim = Simulator()
    dispatcher = FleetDispatcher(params)
    ClientSwarmSource(sim, params, dispatcher.on_batch).start()
    sim.run(until=params.horizon_s)
    return sim


def fleet_goodput_bps(sim: Simulator, params: FleetSwarmParams) -> float:
    """Post-warmup aggregate goodput admitted across the whole fleet."""
    return sim.telemetry.value(WINDOW_BYTES_NAME) * 8 / params.measure_s

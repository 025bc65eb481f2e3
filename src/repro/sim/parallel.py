"""Conservative parallel discrete-event runner: the sharded simulation core.

One :class:`~repro.sim.engine.Simulator` loop tops out around ~450k
events/s, which caps every scalability experiment no matter how fast the
per-packet path gets.  This module breaks that ceiling by partitioning a
deployment across *shards* — the gateway/switch side on shard 0, clients
spread over the rest (:class:`ShardPlan`) — and running one ``Simulator``
per shard, each in its own worker process.

Synchronisation is the classic conservative barrier scheme (a
null-message/LBTS special case): the only inter-shard interactions are
timestamped frames on declared cross-shard channels whose latency is at
least the plan's **lookahead**, so every shard may safely execute a
whole lookahead-window of events before exchanging frames at a barrier.
Frames drained in window *k* can, by construction, only be delivered at
or after the window-*k* bound, so injecting them between windows never
rewinds a shard.

Determinism contract
--------------------
* Same seed + same shard count ⇒ byte-identical merged
  ``trace_digest()`` across runs (and across ``mode="inline"`` vs
  ``mode="fork"``).
* ``shard_count == 1`` — and, for scenarios built from shard-aware
  components, *any* shard count — produces digests byte-identical to
  :func:`run_serial`, which executes every shard's components in one
  plain :class:`Simulator` (the existing serial engine) driven through
  the same window loop.

Three mechanisms make this hold:

1. cross-shard deliveries are injected via
   :meth:`Simulator.schedule_external`, which orders them *before* any
   same-timestamp local event, in injection order;
2. every injection batch is sorted by the canonical key
   ``(deliver_time, channel, emit_index)`` — never by arrival order,
   pipe scheduling, or dict iteration order;
3. per-shard telemetry registries are folded with
   :func:`repro.telemetry.merge.merge_snapshots`, whose counter sums and
   histogram merges are partition-independent.

Builders
--------
A scenario is a *builder*: ``builder(ctx: ShardContext) -> None`` that
constructs shard ``ctx.shard_index``'s components against ``ctx.sim``
and declares its cross-shard channels on ``ctx.fabric``.  The runner
calls the builder once per shard — in one shared simulator for
:func:`run_serial`, in per-shard simulators for :func:`run_sharded`.
Frame payloads cross process boundaries in ``mode="fork"``, so they must
be picklable plain data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import SimulationError, Simulator
from repro.telemetry import names as _names
from repro.telemetry.merge import merge_snapshots, merged_trace_digest
from repro.telemetry.registry import Registry

#: frames handed to a cross-shard channel this window (emit side).
FRAMES_NAME = _names.register(
    "sim.shard.frames", "counter", "frames", "frames emitted onto cross-shard channels"
)

#: a routed frame: (deliver_at, emit_index, payload).
Frame = Tuple[float, int, Any]
#: one drained unit: (channel, dest_shard, batched, frames).
Record = Tuple[str, int, bool, List[Frame]]

Builder = Callable[["ShardContext"], None]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """How a deployment splits across shards.

    ``client_shards[i]`` is the shard hosting client *i*.  Shard 0 is
    always the gateway/switch shard; with more than one shard the
    clients live on shards ``1..n_shards-1`` in contiguous blocks, so a
    plan's canonical frame order coincides with client construction
    order and digests stay partition-stable.
    """

    n_shards: int
    lookahead_s: float
    client_shards: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise SimulationError(f"n_shards must be >= 1, got {self.n_shards}")
        if not self.lookahead_s > 0:
            raise SimulationError(f"lookahead must be positive, got {self.lookahead_s!r}")
        for client, shard in enumerate(self.client_shards):
            if not 0 <= shard < self.n_shards:
                raise SimulationError(
                    f"client {client} assigned to shard {shard}, "
                    f"outside 0..{self.n_shards - 1}"
                )

    @classmethod
    def partition(cls, n_clients: int, n_shards: int, lookahead_s: float) -> "ShardPlan":
        """Contiguous-block partition: gateway on shard 0, clients spread
        over shards ``1..n_shards-1`` (everything on shard 0 when
        ``n_shards == 1``)."""
        if n_clients < 0:
            raise SimulationError(f"n_clients must be >= 0, got {n_clients}")
        if n_shards == 1:
            assignment: Tuple[int, ...] = (0,) * n_clients
        else:
            workers = n_shards - 1
            base, extra = divmod(n_clients, workers)
            blocks: List[int] = []
            for worker in range(workers):
                blocks.extend([worker + 1] * (base + (1 if worker < extra else 0)))
            assignment = tuple(blocks)
        return cls(n_shards=n_shards, lookahead_s=lookahead_s, client_shards=assignment)

    @property
    def n_clients(self) -> int:
        return len(self.client_shards)

    def clients_on(self, shard: int) -> List[int]:
        """Client indices hosted by ``shard``."""
        return [i for i, s in enumerate(self.client_shards) if s == shard]

    def window_bounds(self, horizon_s: float) -> List[float]:
        """Barrier bounds covering ``(0, horizon_s]``, one per lookahead.

        Bounds are computed by multiplication (never accumulation) so
        every mode and every run sees bit-identical floats.
        """
        if not horizon_s > 0:
            raise SimulationError(f"horizon must be positive, got {horizon_s!r}")
        count = max(1, math.ceil(horizon_s / self.lookahead_s - 1e-9))
        bounds = [min((k + 1) * self.lookahead_s, horizon_s) for k in range(count)]
        if bounds[-1] < horizon_s:  # pragma: no cover - float safety net
            bounds.append(horizon_s)
        return bounds


# ----------------------------------------------------------------------
# the cross-shard fabric
# ----------------------------------------------------------------------
class _Egress:
    """Emit handle for one cross-shard channel (held by a sender)."""

    __slots__ = ("_fabric", "channel", "dest_shard", "batched", "_frames", "_emit_index")

    def __init__(self, fabric: "CrossShardFabric", channel: str, dest_shard: int, batched: bool):
        self._fabric = fabric
        self.channel = channel
        self.dest_shard = dest_shard
        self.batched = batched
        self._frames: List[Frame] = []
        self._emit_index = 0

    def emit(self, deliver_at: float, payload: Any) -> None:
        """Queue ``payload`` for delivery at absolute time ``deliver_at``.

        The conservative contract is enforced at injection time: a
        ``deliver_at`` earlier than the next window bound (a lookahead
        violation) raises :class:`SimulationError` on the receiving
        side rather than silently reordering history.
        """
        self._frames.append((deliver_at, self._emit_index, payload))
        self._emit_index += 1
        self._fabric._tm_frames.inc()


class CrossShardFabric:
    """One shard's endpoint of the cross-shard frame exchange.

    In :func:`run_serial` a single fabric (``shard_index=None``) carries
    every channel and loops frames back into the one simulator; in
    sharded modes each shard owns a fabric and the coordinator routes
    drained records between them.
    """

    def __init__(self, shard_index: Optional[int], n_shards: int) -> None:
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._egresses: Dict[str, _Egress] = {}
        self._ingresses: Dict[str, Tuple[Callable[..., None], bool]] = {}
        self._tm_frames = Registry.current().counter(FRAMES_NAME)

    # -- wiring (builder time) ----------------------------------------
    def open_egress(self, channel: str, dest_shard: int, batched: bool = False) -> _Egress:
        """Declare an outbound channel; returns its emit handle."""
        if channel in self._egresses:
            raise SimulationError(f"egress channel {channel!r} already open")
        if not 0 <= dest_shard < self.n_shards:
            raise SimulationError(f"egress {channel!r} targets unknown shard {dest_shard}")
        egress = _Egress(self, channel, dest_shard, batched)
        self._egresses[channel] = egress
        return egress

    def bind_ingress(self, channel: str, receive: Callable[..., None], batched: bool = False) -> None:
        """Register the delivery callback for an inbound channel.

        Unbatched channels call ``receive(payload)`` once per frame, at
        the frame's delivery time.  Batched channels call
        ``receive(frames)`` once per channel and window — at the first
        frame's delivery time, with the full ``[(t, emit_index,
        payload), ...]`` list — trading intra-window arrival granularity
        for one heap entry per batch (the flow-level fast path).
        """
        if channel in self._ingresses:
            raise SimulationError(f"ingress channel {channel!r} already bound")
        self._ingresses[channel] = (receive, batched)

    # -- window machinery (runner time) -------------------------------
    def drain(self) -> List[Record]:
        """Take every frame emitted this window, in canonical channel order."""
        records: List[Record] = []
        for channel in sorted(self._egresses):
            egress = self._egresses[channel]
            if egress._frames:
                records.append((channel, egress.dest_shard, egress.batched, egress._frames))
                egress._frames = []
        return records

    def inject(self, sim: Simulator, records: Sequence[Record]) -> None:
        """Schedule inbound records into ``sim`` in canonical order.

        Units (single frames, or whole batches for batched channels)
        are sorted by ``(deliver_time, channel, emit_index)`` before
        being handed to :meth:`Simulator.schedule_external`, which
        preserves exactly that order against same-timestamp local
        events.  The resulting execution order is a pure function of
        the frames themselves — identical in serial, inline and fork
        modes.
        """
        units: List[Tuple[float, str, int, Callable[[], None]]] = []
        for channel, _dest, batched, frames in records:
            bound = self._ingresses.get(channel)
            if bound is None:
                raise SimulationError(f"no ingress bound for channel {channel!r}")
            receive, want_batched = bound
            if batched != want_batched:
                raise SimulationError(
                    f"channel {channel!r}: egress batched={batched} but "
                    f"ingress batched={want_batched}"
                )
            if batched:
                first = frames[0]
                units.append(
                    (first[0], channel, first[1], (lambda r=receive, f=frames: r(f)))
                )
            else:
                for deliver_at, emit_index, payload in frames:
                    units.append(
                        (deliver_at, channel, emit_index, (lambda r=receive, p=payload: r(p)))
                    )
        units.sort(key=lambda unit: (unit[0], unit[1], unit[2]))
        for when, _channel, _index, thunk in units:
            sim.schedule_external(when, thunk)


@dataclass
class ShardContext:
    """Everything a builder needs to construct one shard."""

    shard_index: int
    plan: ShardPlan
    sim: Simulator
    fabric: CrossShardFabric

    @property
    def is_gateway(self) -> bool:
        """True on the gateway/switch shard (shard 0)."""
        return self.shard_index == 0

    @property
    def clients(self) -> List[int]:
        """Client indices this shard hosts."""
        return self.plan.clients_on(self.shard_index)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class ShardRunResult:
    """Merged outcome of one (serial or sharded) run."""

    plan: ShardPlan
    mode: str
    horizon_s: float
    snapshots: List[dict]
    events_executed: List[int]
    frames_shipped: int = 0
    _merged: Optional[dict] = field(default=None, repr=False)

    @property
    def merged_snapshot(self) -> dict:
        """Partition-independent fold of the per-shard snapshots."""
        if self._merged is None:
            self._merged = merge_snapshots(self.snapshots)
        return self._merged

    @property
    def total_events(self) -> int:
        """Heap entries executed, summed over shards."""
        return sum(self.events_executed)

    def counter(self, name: str) -> float:
        """Merged counter value (0 when never touched)."""
        return self.merged_snapshot["counters"].get(name, 0)

    def trace_digest(self) -> str:
        """Canonical digest; comparable across shard counts and modes."""
        return merged_trace_digest(self.snapshots)


# ----------------------------------------------------------------------
# the runners
# ----------------------------------------------------------------------
def run_serial(
    builder: Builder,
    plan: ShardPlan,
    horizon_s: float,
    recording: bool = False,
) -> ShardRunResult:
    """Every shard's components in one plain :class:`Simulator`.

    This *is* the existing serial engine — one heap, one registry —
    driven through the same window loop and the same loopback fabric as
    the sharded modes, which is what makes its digest the reference the
    sharded runs must reproduce.
    """
    sim = Simulator()
    sim.telemetry.recording = recording
    fabric = CrossShardFabric(shard_index=None, n_shards=plan.n_shards)
    for shard in range(plan.n_shards):
        builder(ShardContext(shard, plan, sim, fabric))
    bounds = plan.window_bounds(horizon_s)
    shipped = 0
    for index, bound in enumerate(bounds):
        sim.run(until=bound)
        if index + 1 < len(bounds):
            records = fabric.drain()
            shipped += sum(len(frames) for _c, _d, _b, frames in records)
            fabric.inject(sim, records)
    return ShardRunResult(
        plan=plan,
        mode="serial",
        horizon_s=horizon_s,
        snapshots=[sim.telemetry.snapshot()],
        events_executed=[sim.events_executed],
        frames_shipped=shipped,
    )


def _route(all_records: Sequence[List[Record]]) -> Dict[int, List[Record]]:
    """Group every shard's drained records by destination shard.

    Source shards are visited in index order and each drain is already
    in canonical channel order, so the per-destination lists are
    deterministic before the receiving side even sorts.
    """
    inbound: Dict[int, List[Record]] = {}
    for records in all_records:
        for record in records:
            inbound.setdefault(record[1], []).append(record)
    return inbound


def _run_inline(
    builder: Builder, plan: ShardPlan, horizon_s: float, recording: bool
) -> ShardRunResult:
    """All shards in one process, stepped in window lockstep.

    The PR 6 isolation contract (interleaved simulators are digest-
    identical to fresh-process runs) is what makes this mode exact, not
    merely approximate; it is also the fallback where ``fork`` is
    unavailable.
    """
    sims: List[Simulator] = []
    fabrics: List[CrossShardFabric] = []
    for shard in range(plan.n_shards):
        sim = Simulator()  # installs its registry as current for the builder
        sim.telemetry.recording = recording
        fabric = CrossShardFabric(shard_index=shard, n_shards=plan.n_shards)
        builder(ShardContext(shard, plan, sim, fabric))
        sims.append(sim)
        fabrics.append(fabric)
    bounds = plan.window_bounds(horizon_s)
    shipped = 0
    inbound: Dict[int, List[Record]] = {}
    for index, bound in enumerate(bounds):
        for shard in range(plan.n_shards):
            fabrics[shard].inject(sims[shard], inbound.get(shard, []))
            sims[shard].run(until=bound)
        if index + 1 < len(bounds):
            drains = [fabric.drain() for fabric in fabrics]
            shipped += sum(len(r[3]) for records in drains for r in records)
            inbound = _route(drains)
        else:
            inbound = {}
    return ShardRunResult(
        plan=plan,
        mode="inline",
        horizon_s=horizon_s,
        snapshots=[sim.telemetry.snapshot() for sim in sims],
        events_executed=[sim.events_executed for sim in sims],
        frames_shipped=shipped,
    )


def _worker_main(conn, builder: Builder, plan: ShardPlan, shard: int, recording: bool) -> None:
    """Shard worker: build, then serve window commands until ``finish``."""
    try:
        sim = Simulator()
        sim.telemetry.recording = recording
        fabric = CrossShardFabric(shard_index=shard, n_shards=plan.n_shards)
        builder(ShardContext(shard, plan, sim, fabric))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "window":
                _kind, bound, inbound = message
                fabric.inject(sim, inbound)
                sim.run(until=bound)
                conn.send(("frames", fabric.drain()))
            elif kind == "finish":
                conn.send(("result", sim.telemetry.snapshot(), sim.events_executed))
                conn.close()
                return
            else:  # pragma: no cover - protocol misuse
                raise SimulationError(f"unknown worker command {kind!r}")
    except BaseException as error:  # noqa: BLE001 - ship the failure to the coordinator
        import traceback

        try:
            conn.send(("error", f"{error!r}\n{traceback.format_exc()}"))
        finally:
            conn.close()


def fork_available() -> bool:
    """True when POSIX ``fork`` workers can be used on this platform."""
    return hasattr(os, "fork")


#: what a pipe to a worker that has already exited raises
_PIPE_GONE = (BrokenPipeError, EOFError, ConnectionResetError)


def _lost_shard(conn, shard: int) -> SimulationError:
    """The error for a shard whose pipe broke: its own report if it left one.

    A worker that fails sends ``("error", traceback)`` and exits, so the
    coordinator's next send or recv on its pipe may raise before the
    report was read; the report is still buffered in the pipe.
    """
    try:
        if conn.poll():
            message = conn.recv()
            if message[0] == "error":
                return SimulationError(f"shard {shard} worker failed:\n{message[1]}")
    except (EOFError, OSError):
        pass
    return SimulationError(f"shard {shard} worker exited without a report")


def _run_fork(
    builder: Builder, plan: ShardPlan, horizon_s: float, recording: bool
) -> ShardRunResult:
    """One worker process per shard, exchanging frames over pipes."""
    import multiprocessing

    # Pre-create the shared aggregation root *before* forking: the
    # process-root lazy init is single-threaded-bootstrap-only (see the
    # SS605 OWNERSHIP waiver), so workers must inherit it, not race it.
    Registry.process_root()
    mp = multiprocessing.get_context("fork")
    parents = []
    workers = []
    try:
        for shard in range(plan.n_shards):
            parent_conn, child_conn = mp.Pipe()
            worker = mp.Process(
                target=_worker_main,
                args=(child_conn, builder, plan, shard, recording),
                name=f"shard-{shard}",
                daemon=True,
            )
            worker.start()
            child_conn.close()
            parents.append(parent_conn)
            workers.append(worker)

        def send(shard: int, message: tuple) -> None:
            try:
                parents[shard].send(message)
            except _PIPE_GONE:
                raise _lost_shard(parents[shard], shard) from None

        def receive(shard: int, expected: str):
            try:
                message = parents[shard].recv()
            except _PIPE_GONE:
                raise _lost_shard(parents[shard], shard) from None
            if message[0] == "error":
                raise SimulationError(f"shard {shard} worker failed:\n{message[1]}")
            if message[0] != expected:  # pragma: no cover - protocol misuse
                raise SimulationError(f"shard {shard}: expected {expected}, got {message[0]!r}")
            return message

        bounds = plan.window_bounds(horizon_s)
        shipped = 0
        inbound: Dict[int, List[Record]] = {}
        for index, bound in enumerate(bounds):
            for shard in range(plan.n_shards):
                send(shard, ("window", bound, inbound.get(shard, [])))
            drains = [receive(shard, "frames")[1] for shard in range(plan.n_shards)]
            if index + 1 < len(bounds):
                shipped += sum(len(r[3]) for records in drains for r in records)
                inbound = _route(drains)
            else:
                inbound = {}
        snapshots: List[dict] = []
        events: List[int] = []
        for shard in range(plan.n_shards):
            send(shard, ("finish",))
            _kind, snapshot, executed = receive(shard, "result")
            snapshots.append(snapshot)
            events.append(executed)
        for worker in workers:
            worker.join(timeout=30)
        return ShardRunResult(
            plan=plan,
            mode="fork",
            horizon_s=horizon_s,
            snapshots=snapshots,
            events_executed=events,
            frames_shipped=shipped,
        )
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for conn in parents:
            conn.close()


def run_sharded(
    builder: Builder,
    plan: ShardPlan,
    horizon_s: float,
    recording: bool = False,
    mode: str = "auto",
) -> ShardRunResult:
    """Run ``builder`` sharded per ``plan`` up to ``horizon_s``.

    ``mode`` is ``"fork"`` (worker processes; the scalable path),
    ``"inline"`` (all shards in one process, for tests and platforms
    without fork), or ``"auto"`` (fork when available).  All modes are
    digest-identical.
    """
    if mode == "auto":
        mode = "fork" if fork_available() else "inline"
    if mode == "fork":
        return _run_fork(builder, plan, horizon_s, recording)
    if mode == "inline":
        return _run_inline(builder, plan, horizon_s, recording)
    raise SimulationError(f"unknown shard runner mode {mode!r}")

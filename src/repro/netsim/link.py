"""Full-duplex point-to-point links with bandwidth, latency and MTU.

Each direction serialises one frame at a time (transmission delay =
frame bits / bandwidth) and then applies propagation latency.  Frames are
queued FIFO per direction with a bounded queue; overflow drops the frame,
which is how the simulator expresses congestion loss.

A direction is a :class:`_Serializer`, driven by heap callbacks: a frame
that finds the wire idle starts at once, its transmit end schedules the
delivery, and the next waiting frame starts one heap entry later.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.sim import Simulator
from repro.telemetry.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.interface import Interface

def _loss_rng_for(name: str):
    """Deterministic per-link loss RNG (stable across interpreter runs,
    unlike the built-in randomized str hash)."""
    import zlib

    from repro.sim import SeededRng

    return SeededRng(zlib.crc32(name.encode()) & 0xFFFF, f"loss:{name}")


#: Ethernet framing overhead added to every IP packet on the wire
#: (MACs + EtherType + FCS + preamble/IPG, rounded to the usual 38 bytes
#: that 10 GbE accounting uses; we use the L2 part only).
ETHERNET_OVERHEAD = 18

DEFAULT_MTU = 9000  # the paper configures jumbo frames (MTU 9000)


class Link:
    """A duplex link between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 10e9,
        latency_s: float = 20e-6,
        mtu: int = DEFAULT_MTU,
        queue_frames: int = 512,
        loss_rate: float = 0.0,
        name: str = "link",
    ) -> None:
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.mtu = mtu
        self.name = name
        self.queue_frames = queue_frames
        #: random frame-loss probability (failure injection); uses a
        #: deterministic per-link RNG so lossy runs stay reproducible
        self.loss_rate = loss_rate
        #: administrative partition (failure injection): while down, every
        #: frame that finishes its transmission is lost
        self.down = False
        self._loss_rng = None
        if loss_rate:
            self._loss_rng = _loss_rng_for(name)
        self.endpoint_a: Optional["Interface"] = None
        self.endpoint_b: Optional["Interface"] = None
        self._a_to_b: Optional[_Serializer] = None
        self._b_to_a: Optional[_Serializer] = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.frames_lost = 0
        self.bytes_delivered = 0
        # shared netsim.link.* totals (per-link reads stay on the plain
        # attributes above); the occupancy histogram is recording-gated
        registry = Registry.current()
        self._tm_sent = registry.counter("netsim.link.frames_sent")
        self._tm_dropped = registry.counter("netsim.link.frames_dropped")
        self._tm_lost = registry.counter("netsim.link.frames_lost")
        self._tm_bytes = registry.counter("netsim.link.bytes_delivered")
        self._tm_occupancy = (
            registry.histogram("netsim.link.queue_depth") if registry.recording else None
        )

    def set_loss_rate(self, rate: float) -> None:
        """Enable/adjust random frame loss on an existing link."""
        self.loss_rate = rate
        if rate and self._loss_rng is None:
            self._loss_rng = _loss_rng_for(self.name)

    def set_down(self, down: bool) -> None:
        """Partition or restore the link (both directions).

        A partition drops frames *without* consuming the loss RNG, so
        injecting one does not perturb the deterministic loss stream of
        a concurrently lossy link.
        """
        self.down = bool(down)

    def set_latency(self, latency_s: float) -> None:
        """Adjust propagation latency (failure injection: latency spike)."""
        self.latency_s = latency_s

    def attach(self, interface: "Interface") -> None:
        """Attach an endpoint; a link accepts exactly two."""
        if self.endpoint_a is None:
            self.endpoint_a = interface
        elif self.endpoint_b is None:
            self.endpoint_b = interface
            self._a_to_b = _Serializer(self, self.endpoint_b)
            self._b_to_a = _Serializer(self, self.endpoint_a)
        else:
            raise RuntimeError(f"{self.name}: link already has two endpoints")
        interface.link = self

    def transmit(self, sender: "Interface", frame: bytes) -> bool:
        """Enqueue ``frame`` for transmission from ``sender``'s side.

        Returns False (and drops) when the frame exceeds the MTU or the
        egress queue is full.
        """
        if self.endpoint_b is None:
            raise RuntimeError(f"{self.name}: link is not fully attached")
        if len(frame) > self.mtu + 60:  # headroom for encapsulation headers
            self.frames_dropped += 1
            self._tm_dropped.inc()
            return False
        direction = self._a_to_b if sender is self.endpoint_a else self._b_to_a
        waiting = direction.waiting
        if len(waiting) >= self.queue_frames:
            self.frames_dropped += 1
            self._tm_dropped.inc()
            return False
        self.frames_sent += 1
        self._tm_sent.inc()
        if self._tm_occupancy is not None:
            self._tm_occupancy.observe(len(waiting))
        if direction.busy:
            waiting.append(frame)
        else:
            direction.busy = True
            direction.start(frame)
        return True


class _Serializer:
    """One direction of a link: the wire and the frames waiting for it."""

    __slots__ = ("link", "receiver", "waiting", "busy")

    def __init__(self, link: Link, receiver: "Interface") -> None:
        self.link = link
        self.receiver = receiver
        self.waiting: Deque[bytes] = deque()
        #: a frame is on the wire, or about to start (one entry away)
        self.busy = False

    def start(self, frame: bytes) -> None:
        """Put ``frame`` on the wire; its transmit end follows."""
        link = self.link
        wire_bytes = len(frame) + ETHERNET_OVERHEAD
        link.sim.schedule(wire_bytes * 8 / link.bandwidth_bps, self.transmit_end, frame)

    def transmit_end(self, frame: bytes) -> None:
        """The last bit left: lose or deliver ``frame``, start the next."""
        link = self.link
        if link.down or (
            link._loss_rng is not None and link._loss_rng.random() < link.loss_rate
        ):
            link.frames_lost += 1
            link._tm_lost.inc()
        else:
            link.sim.schedule(link.latency_s, self.receiver.deliver, frame)
            link.bytes_delivered += len(frame)
            link._tm_bytes.inc(len(frame))
        if self.waiting:
            # popped now, as the queue's length counts against queue_frames
            link.sim.schedule(0.0, self.start, self.waiting.popleft())
        else:
            self.busy = False

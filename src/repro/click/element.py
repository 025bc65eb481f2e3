"""Click element base class and the packet-annotation wrapper.

Elements process :class:`Packet` objects — thin wrappers around
:class:`~repro.netsim.packet.IPv4Packet` that add Click-style
annotations (paint marks, verdicts) without mutating the network
packet.  Processing is push-based: ``element.push(port, packet)``
consumes the packet and forwards it (possibly transformed) out of one
or more output ports.

Cost accounting: every element reports a per-packet simulated CPU cost
through :meth:`Element.cost`; the router sums those into its ledger as
a packet traverses the graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.netsim.packet import IPv4Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.click.router import Router


class ElementError(RuntimeError):
    """Configuration or wiring error in an element graph."""


class Packet:
    """A packet travelling through a Click graph.

    ``ip`` is the underlying network packet; annotations hold element
    metadata (e.g. Paint).  The verdict starts as ``None`` and becomes
    ``"accept"`` (reached a ToDevice) or ``"reject"`` (discarded).
    """

    __slots__ = ("ip", "annotations", "verdict", "output_port")

    def __init__(self, ip: IPv4Packet) -> None:
        self.ip = ip
        self.annotations: Dict[str, Any] = {}
        self.verdict: Optional[str] = None
        self.output_port: int = 0  # which ToDevice claimed the packet

    @property
    def payload_bytes(self) -> bytes:
        """The L4 payload bytes (what DPI elements scan)."""
        l4 = self.ip.l4
        if isinstance(l4, bytes):
            return l4
        return getattr(l4, "payload", b"")

    @property
    def length(self) -> int:
        return len(self.ip)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Packet {self.ip.src}->{self.ip.dst} len={self.length} verdict={self.verdict}>"


class Element:
    """Base class for all Click elements.

    Subclasses declare ``PORT_COUNT = (n_inputs, n_outputs)`` — with
    ``None`` meaning "any number" — and implement :meth:`push`.
    """

    PORT_COUNT: Tuple[Optional[int], Optional[int]] = (1, 1)
    ELEMENT_NAME = "Element"

    def __init__(self, name: str, args: List[str]) -> None:
        self.name = name
        self.args = args
        self.router: Optional["Router"] = None
        self._outputs: List[Optional[Tuple["Element", int]]] = []
        self.packets_in = 0
        self.packets_out = 0
        try:
            self.configure(args)
        except ValueError as exc:
            # an argument that does not parse (``int("many")``) is a
            # configuration error like any other
            raise ElementError(f"{name}: bad argument: {exc}") from exc

    # ------------------------------------------------------------------
    # configuration & wiring
    # ------------------------------------------------------------------
    def configure(self, args: List[str]) -> None:
        """Parse configuration-string arguments (override as needed).

        A ``ValueError`` raised here reaches the caller as
        :class:`ElementError`."""

    def initialize(self, router: "Router") -> None:
        """Called once after the whole graph is wired."""
        self.router = router

    def connect_output(self, out_port: int, target: "Element", in_port: int) -> None:
        """Wire an output port to a target element's input."""
        n_out = self.PORT_COUNT[1]
        if n_out is not None and out_port >= n_out:
            raise ElementError(f"{self.name}: no output port {out_port} (has {n_out})")
        while len(self._outputs) <= out_port:
            self._outputs.append(None)
        if self._outputs[out_port] is not None:
            raise ElementError(f"{self.name}: output port {out_port} connected twice")
        self._outputs[out_port] = (target, in_port)

    def check_wiring(self) -> None:
        """Validate that mandatory ports are connected."""
        n_out = self.PORT_COUNT[1]
        expected = n_out if n_out is not None else len(self._outputs)
        for port in range(expected or 0):
            if port >= len(self._outputs) or self._outputs[port] is None:
                raise ElementError(f"{self.name}: output port {port} not connected")

    # ------------------------------------------------------------------
    # packet processing
    # ------------------------------------------------------------------
    def push(self, port: int, packet: Packet) -> None:
        """Process a packet arriving on input ``port``; default: forward."""
        self.output(0, packet)

    def output(self, port: int, packet: Packet) -> None:
        """Send ``packet`` out of output ``port``."""
        if port >= len(self._outputs) or self._outputs[port] is None:
            # Unconnected output behaves like Discard (Click drops too).
            packet.verdict = packet.verdict or "reject"
            return
        target, in_port = self._outputs[port]
        self.packets_out += 1
        target._receive(in_port, packet)

    def _receive(self, port: int, packet: Packet) -> None:
        self.packets_in += 1
        if self.router is not None:
            self.router.charge(self, packet)
        self.push(port, packet)

    # ------------------------------------------------------------------
    # cost & state transfer
    # ------------------------------------------------------------------
    def cost(self, packet: Packet) -> float:
        """Simulated CPU seconds to process ``packet`` in this element."""
        model = self.router.cost_model if self.router is not None else None
        if model is None:
            return 0.0
        return model.click_element_fixed

    def take_state(self, predecessor: "Element") -> None:
        """Adopt state from the same-named element of the old config."""

    # ------------------------------------------------------------------
    # handlers (Click's read/write handler interface)
    # ------------------------------------------------------------------
    def read_handler(self, name: str) -> str:
        """Read a named statistic (Click's read-handler interface)."""
        if name == "count":
            return str(self.packets_in)
        raise ElementError(f"{self.name}: no read handler {name!r}")

    def write_handler(self, name: str, value: str) -> None:
        """Write a named control (Click's write-handler interface)."""
        raise ElementError(f"{self.name}: no write handler {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).ELEMENT_NAME} {self.name}>"

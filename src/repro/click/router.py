"""The Click router: instantiate, wire and drive an element graph.

A router is built from a parsed configuration.  Packets enter through
the ``FromDevice`` element and leave through ``ToDevice`` (accepted) or
any dropping element (rejected); :meth:`Router.process` returns the
Click-level verdict plus the possibly transformed packet, which is what
the VPN layer consumes ("the ToDevice element is modified to signal
OpenVPN when a packet was accepted or rejected", §IV).

Per-element costs accumulate into an optional
:class:`~repro.sgx.gateway.CostLedger` so the enclosing pipeline can
charge simulated CPU time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.click.config import ParsedConfig, parse_config
from repro.click.element import Element, ElementError, Packet
from repro.click.registry import lookup_element
from repro.netsim.packet import IPv4Packet
from repro.sgx.gateway import CostLedger
from repro.telemetry import names as _tm_names
from repro.telemetry.registry import Counter, Registry


def element_instruments(registry, element_type: type) -> Tuple[Counter, Counter]:
    """The ``(packets, seconds)`` telemetry counters for an element class.

    Registers ``click.<class>.packets`` / ``click.<class>.seconds`` on
    first use.  A recording :class:`Router` looks the pairs up once per
    element class at construction, never per packet.
    """
    class_key = element_type.__name__.lower()
    pkts_name = _tm_names.register(
        f"click.{class_key}.packets", "counter", "packets",
        f"packets dispatched through {element_type.__name__} elements",
    )
    secs_name = _tm_names.register(
        f"click.{class_key}.seconds", "counter", "seconds",
        f"simulated seconds charged by {element_type.__name__} elements",
    )
    return (registry.counter(pkts_name), registry.counter(secs_name))


class Router:
    """An instantiated Click configuration.

    Packets traverse the graph through ``Element.output`` /
    ``Element._receive``, which charge every element's cost through
    :meth:`charge`.  Hot swaps build a new router.
    """

    def __init__(
        self,
        config_text: str,
        cost_model=None,
        ledger: Optional[CostLedger] = None,
        context: Optional[dict] = None,
    ) -> None:
        self.config_text = config_text
        self.cost_model = cost_model
        self.ledger = ledger
        #: Host-environment objects elements may need (trusted time,
        #: TLS key registry, ...), injected by the embedding process.
        self.context = context or {}
        self.elements: Dict[str, Element] = {}
        self._entry: Optional[Element] = None
        self.packets_processed = 0
        #: the registry this router reports into; fixed at construction
        #: so hot-swapped replacements built inside the same simulator
        #: attach to the same scope.
        self.telemetry = Registry.current()
        self._tm_packets = self.telemetry.counter("click.router.packets", private=True)
        self._build(parse_config(config_text))
        # only when recording: every element class's (packets, seconds)
        # counters, registered up front so charge() never formats a name
        self._tm_elements: Optional[Dict[type, Tuple[Counter, Counter]]] = None
        if self.telemetry.recording:
            classes = dict.fromkeys(type(element) for element in self.elements.values())
            self._tm_elements = {
                cls: element_instruments(self.telemetry, cls) for cls in classes
            }

    # ------------------------------------------------------------------
    def _build(self, parsed: ParsedConfig) -> None:
        for declaration in parsed.declarations:
            cls = lookup_element(declaration.class_name)
            self.elements[declaration.name] = cls(declaration.name, declaration.args)
        for connection in parsed.connections:
            src = self.elements[connection.src]
            dst = self.elements[connection.dst]
            src.connect_output(connection.src_port, dst, connection.dst_port)
        for element in self.elements.values():
            element.initialize(self)
        from repro.click.elements.device import FromDevice

        entries = [e for e in self.elements.values() if isinstance(e, FromDevice)]
        if len(entries) > 1:
            raise ElementError("configuration has multiple FromDevice elements")
        self._entry = entries[0] if entries else None

    # ------------------------------------------------------------------
    def charge(self, element: Element, packet: Packet) -> None:
        """Add an element's per-packet cost to the ledger.

        When the router's registry is recording, the per-element-class
        packet and simulated-second counters are incremented here too.
        """
        instruments = self._tm_elements
        if instruments is None:
            if self.ledger is not None:
                self.ledger.add(element.cost(packet))
            return
        packets, seconds = instruments[type(element)]
        packets.inc()
        if self.ledger is not None:
            cost = element.cost(packet)
            self.ledger.add(cost)
            seconds.inc(cost)

    def process(self, ip_packet: IPv4Packet) -> Tuple[bool, IPv4Packet]:
        """Run one packet through the graph.

        Returns ``(accepted, packet)`` where ``packet`` reflects any
        header/payload rewrites elements performed.
        """
        if self._entry is None:
            raise ElementError("configuration has no FromDevice entry point")
        packet = Packet(ip_packet)
        self.packets_processed += 1
        self._tm_packets.inc()
        self._entry._receive(0, packet)
        return packet.verdict == "accept", packet.ip

    def process_batch(self, ip_packets) -> List[Tuple[bool, IPv4Packet]]:
        """Run a burst of packets through the graph: a loop over :meth:`process`."""
        return [self.process(ip) for ip in ip_packets]

    # ------------------------------------------------------------------
    def element(self, name: str) -> Element:
        """Look up an element by name; raises ElementError if missing."""
        try:
            return self.elements[name]
        except KeyError:
            raise ElementError(f"no element named {name!r}") from None

    def find_elements(self, cls) -> List[Element]:
        """Every element that is an instance of the class."""
        return [e for e in self.elements.values() if isinstance(e, cls)]

    def read_handler(self, element_name: str, handler: str) -> str:
        """Read a named statistic (Click's read-handler interface)."""
        return self.element(element_name).read_handler(handler)

    def write_handler(self, element_name: str, handler: str, value: str = "") -> None:
        """Write a named control (Click's write-handler interface)."""
        self.element(element_name).write_handler(handler, value)

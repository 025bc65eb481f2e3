"""Per-host protocol stack: routing, demux, UDP sockets, ICMP echo.

The stack owns all interfaces of a host (physical NICs and TUN devices),
routes outbound packets by longest-prefix match, delivers inbound packets
to sockets / the TCP engine / the ICMP responder, and optionally forwards
transit packets (the VPN server host has ``forwarding=True``).

Hooks
-----
``egress_hooks`` / ``ingress_hooks`` are lists of callables
``hook(packet) -> packet | None`` run on every locally-originated /
locally-delivered packet.  Returning ``None`` drops the packet.  The
EndBox server uses an ingress hook to enforce "only VPN traffic enters
the managed network" and to strip the 0xEB QoS flag from outside packets.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.netsim.addresses import IPv4Address, IPv4Network, as_address
from repro.netsim.interface import Interface
from repro.netsim.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IcmpMessage,
    IPv4Packet,
    TcpSegment,
    UdpDatagram,
    WireFrame,
    fast_wire_frame,
    new_ipv4,
    new_udp,
    parse_ipv4,
)
from repro.netsim.tun import TunDevice
from repro.sim import FifoStore, Simulator

PacketHook = Callable[[IPv4Packet], Optional[IPv4Packet]]

#: a socket's receive handler: ``(payload, src_addr, src_port, packet)``
DatagramHandler = Callable[[bytes, IPv4Address, int, IPv4Packet], None]


class StackError(RuntimeError):
    """Raised for stack misuse (unbound sends, duplicate binds, ...)."""


class UdpSocket:
    """A UDP socket bound to (address, port).

    A process reads it with the blocking :meth:`recv`; a daemon instead
    registers a handler with :meth:`on_receive`, which runs for each
    datagram as it arrives.
    """

    def __init__(self, stack: "NetworkStack", address: IPv4Address, port: int) -> None:
        self.stack = stack
        self.address = address
        self.port = port
        self._inbox = FifoStore(stack.sim, name=f"udp:{port}.inbox")
        self._handler: Optional[DatagramHandler] = None
        self.closed = False

    def sendto(self, payload: bytes, dst: IPv4Address, dst_port: int, tos: int = 0) -> bool:
        """Send a datagram; returns False if it was dropped locally."""
        if self.closed:
            raise StackError("socket is closed")
        packet = new_ipv4(
            self.address,
            as_address(dst),
            new_udp(self.port, dst_port, payload),
            tos=tos,
            protocol=PROTO_UDP,
        )
        return self.stack.send_packet(packet)

    def on_receive(self, handler: DatagramHandler) -> None:
        """Call ``handler(payload, src_addr, src_port, packet)`` for each
        datagram when it arrives, instead of queueing it for :meth:`recv`."""
        self._handler = handler

    def recv(self):
        """Event yielding ``(payload, src_addr, src_port, packet)``."""
        return self._inbox.get()

    def pending(self) -> int:
        """Number of queued items."""
        return len(self._inbox)

    def close(self) -> None:
        """Close and release the resource."""
        self.closed = True
        self.stack._unbind_udp(self)

    def _deliver(self, packet: IPv4Packet, datagram: UdpDatagram) -> None:
        if self.closed:
            return
        if self._handler is not None:
            self._handler(datagram.payload, packet.src, datagram.src_port, packet)
        else:
            self._inbox.put((datagram.payload, packet.src, datagram.src_port, packet))


class NetworkStack:
    """Routing + transport demux for one host."""

    def __init__(self, sim: Simulator, hostname: str, forwarding: bool = False) -> None:
        self.sim = sim
        self.hostname = hostname
        self.forwarding = forwarding
        self.interfaces: List[Interface] = []
        self._routes: List[Tuple[IPv4Network, Interface]] = []
        self._udp_sockets: Dict[Tuple[IPv4Address, int], UdpSocket] = {}
        self._raw_listeners: List[Callable[[IPv4Packet, Interface], bool]] = []
        self.egress_hooks: List[PacketHook] = []
        self.ingress_hooks: List[PacketHook] = []
        #: hooks run on transit packets (forwarding hosts only); they
        #: receive (packet, ingress_interface) and return packet | None.
        self.forward_hooks: List[Callable[[IPv4Packet, Optional[Interface]], Optional[IPv4Packet]]] = []
        self.icmp_echo_enabled = True
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self._ephemeral_port = 49152
        self._ping_waiters: Dict[Tuple[int, int], object] = {}
        from repro.netsim.tcp import TcpEngine  # late import to avoid a cycle

        self.tcp = TcpEngine(self)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_interface(self, interface: Interface, network: Optional[IPv4Network] = None) -> None:
        """Register an interface; optionally install its connected route."""
        interface.set_receiver(self._on_frame)
        self.interfaces.append(interface)
        if network is not None:
            self.add_route(network, interface)

    def add_route(self, network: Union[IPv4Network, str], interface: Interface) -> None:
        """Install a route; longest prefix wins, later additions break ties.

        Later-wins tie-breaking is what lets a VPN client shadow the
        LAN route with an equally-specific tunnel route (the effect of
        OpenVPN's redirect-gateway).
        """
        if isinstance(network, str):
            network = IPv4Network(network)
        self._route_seq = getattr(self, "_route_seq", 0) + 1
        self._routes.append((network, interface, self._route_seq))
        self._routes.sort(key=lambda item: (-item[0].prefix_len, -item[2]))

    def is_local(self, address: IPv4Address) -> bool:
        """True when the address belongs to this stack."""
        if type(address) is not IPv4Address:
            address = as_address(address)
        # addresses are interned, so identity comparison suffices
        for itf in self.interfaces:
            if itf.address is address:
                return True
        return False

    def set_preferred_source(self, address: Optional[IPv4Address]) -> None:
        """Make ``address`` the default source for new sockets/pings.

        A VPN client sets this to its tunnel address after connecting
        (the effect of OpenVPN's ``redirect-gateway``), so application
        traffic originates inside the tunnel.
        """
        self._preferred_source = IPv4Address(address) if address is not None else None

    def primary_address(self) -> IPv4Address:
        """The default source address for new sockets."""
        preferred = getattr(self, "_preferred_source", None)
        if preferred is not None:
            return preferred
        for itf in self.interfaces:
            if itf.address is not None:
                return itf.address
        raise StackError(f"{self.hostname}: no addressed interface")

    def source_address_for(self, destination: IPv4Address) -> IPv4Address:
        """The source address for a new flow to ``destination``.

        Follows the route, as Linux does: when the egress interface for
        the destination holds an address and the stack's preferred
        source (a VPN tunnel address) lives on a *different* interface,
        the egress interface's own address wins.  This is what makes a
        pinned host route escape the tunnel completely — replies come
        straight back to the physical address instead of being
        blackholed in a tunnel that may be down.
        """
        if type(destination) is not IPv4Address:
            destination = IPv4Address(destination)
        itf = self.route_for(destination)
        preferred = getattr(self, "_preferred_source", None)
        if itf is not None and itf.address is not None:
            if preferred is None or preferred is itf.address:
                return itf.address
            if any(o.address is preferred for o in self.interfaces if o is not itf):
                return itf.address
        return self.primary_address()

    def add_raw_listener(self, listener: Callable[[IPv4Packet, Interface], bool]) -> None:
        """Register a promiscuous tap; return True from it to consume."""
        self._raw_listeners.append(listener)

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------
    def udp_socket(self, port: int = 0, address: Optional[IPv4Address] = None) -> UdpSocket:
        """Create and bind a UDP socket (port 0 picks an ephemeral port)."""
        bind_addr = IPv4Address(address) if address is not None else self.primary_address()
        if port == 0:
            port = self._next_ephemeral()
        key = (bind_addr, port)
        if key in self._udp_sockets:
            raise StackError(f"{self.hostname}: UDP port {port} already bound on {bind_addr}")
        sock = UdpSocket(self, bind_addr, port)
        self._udp_sockets[key] = sock
        return sock

    def _unbind_udp(self, sock: UdpSocket) -> None:
        self._udp_sockets.pop((sock.address, sock.port), None)

    def _next_ephemeral(self) -> int:
        self._ephemeral_port += 1
        if self._ephemeral_port > 65000:
            self._ephemeral_port = 49153
        return self._ephemeral_port

    # ------------------------------------------------------------------
    # egress path
    # ------------------------------------------------------------------
    def route_for(self, dst: IPv4Address) -> Optional[Interface]:
        """The egress interface for a destination, or None."""
        for network, interface, _seq in self._routes:
            if dst in network:
                return interface
        return None

    def send_packet(self, packet: IPv4Packet) -> bool:
        """Route and transmit a locally-originated packet."""
        for hook in self.egress_hooks:
            maybe = hook(packet)
            if maybe is None:
                self.packets_dropped += 1
                return False
            packet = maybe
        return self._transmit(packet)

    def _transmit(self, packet: IPv4Packet) -> bool:
        if self.is_local(packet.dst):
            # Loopback delivery at the current instant.
            self.sim.schedule(0.0, lambda: self._deliver_local(packet, None))
            self.packets_sent += 1
            return True
        egress = self.route_for(packet.dst)
        if egress is None:
            self.packets_dropped += 1
            return False
        if isinstance(egress, TunDevice):
            self.packets_sent += 1
            egress.enqueue_outbound(packet)
            return True
        mtu = egress.link.mtu if egress.link is not None else 9000
        if len(packet) > mtu:
            # IP fragmentation onto the MTU-limited link
            if packet.identification == 0:
                self._ip_ident = getattr(self, "_ip_ident", 0) + 1
                packet = packet.copy(identification=self._ip_ident & 0xFFFF or 1)
            ok = True
            for fragment in packet.fragment(mtu):
                ok = egress.send(fragment.serialize()) and ok
            if ok:
                self.packets_sent += 1
            else:
                self.packets_dropped += 1
            return ok
        # cut-through fast path: provably round-trippable packets cross
        # the link as a snapshot object instead of serialize+parse bytes
        frame = fast_wire_frame(packet)
        ok = egress.send(frame if frame is not None else packet.serialize())
        if ok:
            self.packets_sent += 1
        else:
            self.packets_dropped += 1
        return ok

    # ------------------------------------------------------------------
    # ingress path
    # ------------------------------------------------------------------
    def _on_frame(self, frame: bytes, interface: Interface) -> None:
        if type(frame) is WireFrame:
            self.inject(frame.packet, interface)
            return
        try:
            packet = parse_ipv4(frame)
        except ValueError:
            self.packets_dropped += 1
            return
        self.inject(packet, interface)

    def inject(self, packet: IPv4Packet, interface: Optional[Interface] = None) -> None:
        """Process a packet as if it arrived on ``interface``.

        TUN devices and the VPN layer use this to hand decapsulated
        packets back to the stack.
        """
        for listener in self._raw_listeners:
            if listener(packet, interface):
                return
        if self.is_local(packet.dst):
            self._deliver_local(packet, interface)
        elif self.forwarding:
            if packet.ttl <= 1:
                self.packets_dropped += 1
                return
            for hook in self.forward_hooks:
                maybe = hook(packet, interface)
                if maybe is None:
                    self.packets_dropped += 1
                    return
                packet = maybe
            self.packets_forwarded += 1
            self._transmit(packet.copy(ttl=packet.ttl - 1))
        else:
            self.packets_dropped += 1

    def _reassemble(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        """Collect IP fragments; returns the full packet when complete.

        Per-datagram state is two flat dicts (offset -> body slice, and
        datagram key -> expected total) so the per-fragment path only
        touches existing containers instead of allocating an entry
        structure per fragment.
        """
        table = getattr(self, "_ip_fragments", None)
        if table is None:
            table = self._ip_fragments = {}
            self._ip_frag_totals = {}
        totals = self._ip_frag_totals
        key = (packet.src, packet.dst, packet.identification, packet.protocol)
        frags = table.get(key)
        if frags is None:
            frags = table[key] = {}
        l4 = packet.l4
        tail = l4 if isinstance(l4, bytes) else l4.serialize()
        frags[packet.frag_offset * 8] = tail
        if not packet.more_fragments:
            totals[key] = packet.frag_offset * 8 + len(tail)
        total = totals.get(key)
        if total is None:
            return None
        covered = 0
        assembled = bytearray(total)
        for offset in sorted(frags):
            part = frags[offset]
            assembled[offset : offset + len(part)] = part
            covered += len(part)
        if covered < total:
            if len(table) > 256:  # bound the table
                stale = next(iter(table))
                table.pop(stale)
                totals.pop(stale, None)
            return None
        del table[key]
        del totals[key]
        full = packet.copy(l4=bytes(assembled), frag_offset=0, more_fragments=False)
        try:
            return parse_ipv4(full.serialize())
        except ValueError:
            self.packets_dropped += 1
            return None

    def _deliver_local(self, packet: IPv4Packet, interface: Optional[Interface]) -> None:
        if packet.is_fragment:
            reassembled = self._reassemble(packet)
            if reassembled is None:
                return
            packet = reassembled
        for hook in self.ingress_hooks:
            maybe = hook(packet)
            if maybe is None:
                self.packets_dropped += 1
                return
            packet = maybe
        self.packets_received += 1
        l4 = packet.l4
        if isinstance(l4, UdpDatagram):
            sock = self._udp_sockets.get((packet.dst, l4.dst_port))
            if sock is None:
                # fall back to wildcard bind on another local address
                sock = next(
                    (
                        s
                        for (addr, port), s in self._udp_sockets.items()
                        if port == l4.dst_port
                    ),
                    None,
                )
            if sock is not None:
                sock._deliver(packet, l4)
            else:
                self.packets_dropped += 1
        elif isinstance(l4, TcpSegment):
            self.tcp.handle_segment(packet, l4)
        elif isinstance(l4, IcmpMessage):
            self._handle_icmp(packet, l4)
        # raw payloads are counted but have no consumer

    def _handle_icmp(self, packet: IPv4Packet, message: IcmpMessage) -> None:
        if message.icmp_type == IcmpMessage.ECHO_REQUEST and self.icmp_echo_enabled:
            reply = new_ipv4(packet.dst, packet.src, message.make_reply(), protocol=PROTO_ICMP)
            self.send_packet(reply)
        elif message.icmp_type == IcmpMessage.ECHO_REPLY:
            waiter = self._ping_waiters.pop((message.identifier, message.sequence), None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(self.sim.now)

    # ------------------------------------------------------------------
    # ping client
    # ------------------------------------------------------------------
    def ping(self, dst: IPv4Address, identifier: int = 1, sequence: int = 0, size: int = 56, timeout: float = 1.0):
        """Process generator: send an echo request, return the RTT or None."""
        sent_at = self.sim.now
        waiter = self.sim.event(f"ping:{identifier}:{sequence}")
        self._ping_waiters[(identifier, sequence)] = waiter
        request = IPv4Packet(
            src=self.primary_address(),
            dst=IPv4Address(dst),
            l4=IcmpMessage(IcmpMessage.ECHO_REQUEST, 0, identifier, sequence, b"\x00" * size),
        )
        self.send_packet(request)
        timer = self.sim.timeout(timeout)
        result = yield self.sim.any_of([waiter, timer])
        event, value = result
        if event is timer:
            self._ping_waiters.pop((identifier, sequence), None)
            return None
        return value - sent_at

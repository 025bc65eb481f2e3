"""TUN devices: user-space packet taps, as used by OpenVPN.

A TUN device looks like a routed interface to the stack: each packet
routed to the VPN subnet is handed to the read handler the user-space VPN
process registered (:meth:`TunDevice.on_read`), as an event loop calls a
read handler when the device becomes readable.  Packets the VPN
decapsulates are written back (``write()``) and re-enter the stack as if
received from the wire — exactly the Linux ``/dev/net/tun`` contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.addresses import IPv4Address
from repro.netsim.interface import Interface
from repro.netsim.packet import IPv4Packet
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.stack import NetworkStack

#: TUN devices accept packets up to the IPv4 maximum; the paper's
#: throughput sweep writes up to 64 KiB packets into the tunnel.
TUN_MTU = 65535


class TunDevice(Interface):
    """A TUN interface owned by a user-space process."""

    def __init__(self, sim: Simulator, name: str, address: Optional[IPv4Address] = None) -> None:
        super().__init__(name, address)
        self.sim = sim
        self.mtu = TUN_MTU
        self.stack: Optional["NetworkStack"] = None
        self._reader: Optional[Callable[[IPv4Packet], None]] = None
        #: packets over the MTU, or routed here with no reader registered
        self.packets_dropped = 0

    def attach(self, stack: "NetworkStack") -> None:
        """Attach to the owning stack."""
        self.stack = stack

    def on_read(self, handler: Callable[[IPv4Packet], None]) -> None:
        """Register the owner's read handler: ``handler(packet)`` runs for
        every packet the stack routes into the tunnel, when it is routed."""
        self._reader = handler

    # ------------------------------------------------------------------
    # stack side
    # ------------------------------------------------------------------
    def enqueue_outbound(self, packet: IPv4Packet) -> bool:
        """Called by the stack when it routes a packet into the tunnel."""
        if len(packet) > self.mtu or self._reader is None:
            self.packets_dropped += 1
            return False
        self._reader(packet)
        return True

    # ------------------------------------------------------------------
    # user-space side
    # ------------------------------------------------------------------
    def write(self, packet: IPv4Packet) -> None:
        """Inject a decapsulated packet back into the host stack."""
        if self.stack is None:
            raise RuntimeError(f"{self.name}: TUN device not attached to a stack")
        self.stack.inject(packet, self)

"""The EndBox server: the managed network's single entry point.

Beyond the vanilla VPN server it enforces the EndBox security
properties:

* only clients whose certificates came from the deployment CA's
  attestation-gated enrollment connect (the base handshake verifies the
  CA signature; the CA only signs attested enclaves — §III-C),
* reconnecting clients must already run the latest configuration once
  the grace period expired (§III-E),
* the 0xEB QoS flag is stripped from any packet entering from outside
  the tunnel, so external attackers cannot make clients skip their
  middlebox functions (§IV-A).
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.interface import Interface
from repro.netsim.packet import ENDBOX_PROCESSED_TOS, IPv4Packet
from repro.netsim.tun import TunDevice
from repro.vpn.handshake import Certificate
from repro.vpn.openvpn import OpenVpnServer


class EndBoxServer(OpenVpnServer):
    """VPN concentrator with EndBox admission and flag hygiene."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.admissions_denied = 0
        self.flags_stripped = 0
        self.host.stack.forward_hooks.append(self._strip_outside_flags)

    # ------------------------------------------------------------------
    def admit_session(self, certificate: Certificate, client_version: int) -> bool:
        if not certificate.subject.startswith("endbox:"):
            self.admissions_denied += 1
            return False
        deadline = self.grace_deadline_for(client_version)
        grace_expired = deadline is not None and self.sim.now >= deadline
        if grace_expired and client_version < self.current_config_version:
            # §III-E: after the grace period, reconnecting clients must
            # fetch the current configuration before connecting.
            self.admissions_denied += 1
            return False
        return True

    # ------------------------------------------------------------------
    def _strip_outside_flags(
        self, packet: IPv4Packet, ingress: Optional[Interface]
    ) -> IPv4Packet:
        """Remove 0xEB from packets that did not arrive through a tunnel.

        Tunnel packets are injected via the TUN device and are integrity
        protected, so their flag is trustworthy; anything arriving on a
        physical interface with the flag set is an outside forgery
        attempt.
        """
        if packet.tos == ENDBOX_PROCESSED_TOS and not isinstance(ingress, TunDevice):
            self.flags_stripped += 1
            return packet.copy(tos=0)
        return packet

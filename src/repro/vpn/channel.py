"""The data channel: per-packet encryption and authentication.

``DataChannel`` owns one direction pair of symmetric keys derived during
the control-channel handshake.  Modes (§IV-A, scenario-specific traffic
protection):

* ``ENCRYPT_AND_MAC`` — encryption + HMAC (enterprise scenario; the
  default, like OpenVPN's data channel),
* ``MAC_ONLY`` — payload travels in clear but integrity-protected (ISP
  scenario; users opted in, so confidentiality against the ISP is not a
  goal, but Click-processing still cannot be bypassed).

Each record is encrypted with the SHAKE-128 keystream cipher
(:class:`~repro.crypto.stream.KeystreamCipher`, nonce = session id and
packet id) and authenticated with an HMAC-SHA256 tag truncated to
:data:`TAG_LEN` bytes.  The cost model prices the encryption as
AES-128-CBC, OpenVPN's data-channel cipher (see ``repro.vpn.costing``).

Buffer model (see DESIGN.md, "Zero-copy buffer model"): record bodies
arriving from :func:`repro.vpn.protocol.VpnPacket.parse` are
``memoryview`` slices over the datagram buffer.  ``unprotect`` splits
ciphertext and tag as sub-views, MAC-checks straight from the views via
the chunked HMAC API, and only materialises fresh ``bytes`` for the
*output* plaintext — the one copy the trust transition requires.  The
burst forms are loops over the scalar ones, so every received record
is MAC-checked and decrypted by the receiver itself.
"""

from __future__ import annotations

import enum
import struct

from repro.crypto.hmac import hmac_sha256, hmac_verify
from repro.crypto.stream import KeystreamCipher
from repro.telemetry.registry import Registry
from repro.vpn.protocol import OP_DATA, VpnPacket

TAG_LEN = 16

_NONCE = struct.Struct(">QQ")


class ChannelError(RuntimeError):
    """Authentication or format failure on the data channel."""


class ProtectionMode(enum.Enum):
    ENCRYPT_AND_MAC = "encrypt+mac"
    MAC_ONLY = "mac-only"


class DataChannel:
    """Symmetric protection for one VPN session direction.

    Packet and byte tallies report through :mod:`repro.telemetry`: the
    public :attr:`protected` / :attr:`rejected` /
    :attr:`bytes_protected` / :attr:`bytes_unprotected` counters are
    private instruments (per-channel ``.value``) mirroring into the
    owning registry's shared ``vpn.channel.*`` totals.
    """

    def __init__(self, cipher_key: bytes, hmac_key: bytes, mode: ProtectionMode = ProtectionMode.ENCRYPT_AND_MAC) -> None:
        if len(cipher_key) < 16 or len(hmac_key) < 16:
            raise ValueError("channel keys must be at least 16 bytes")
        self._cipher = KeystreamCipher(cipher_key.ljust(16, b"\x00"))
        self._hmac_key = hmac_key
        self.mode = mode
        registry = Registry.current()
        self.telemetry = registry
        self.protected = registry.counter("vpn.channel.packets_protected", private=True)
        self.rejected = registry.counter("vpn.channel.packets_rejected", private=True)
        self.bytes_protected = registry.counter("vpn.channel.bytes_protected", private=True)
        self.bytes_unprotected = registry.counter("vpn.channel.bytes_unprotected", private=True)

    # ------------------------------------------------------------------
    def _nonce(self, session_id: int, packet_id: int) -> bytes:
        return _NONCE.pack(session_id, packet_id)

    def protect(self, packet: VpnPacket, plaintext: bytes) -> VpnPacket:
        """Fill ``packet.body`` with the protected form of ``plaintext``."""
        if packet.opcode != OP_DATA:
            raise ChannelError("data channel only protects DATA packets")
        if self.mode is ProtectionMode.ENCRYPT_AND_MAC:
            payload = self._cipher.encrypt(self._nonce(packet.session_id, packet.packet_id), plaintext)
        else:
            payload = plaintext
        tag = hmac_sha256(self._hmac_key, packet.auth_header(), payload)[:TAG_LEN]
        packet.body = payload + tag
        self.protected.inc()
        self.bytes_protected.inc(len(plaintext))
        return packet

    def protect_batch(self, items) -> list:
        """Protect a burst of ``(packet, plaintext)`` pairs: a loop over
        :meth:`protect`, returning the protected packets in order."""
        return [self.protect(p, data) for p, data in items]

    def unprotect_batch(self, packets) -> list:
        """Authenticate/decrypt a burst; one ``Optional[bytes]`` each.

        A loop over :meth:`unprotect`, except that a failing packet
        yields ``None`` in its slot instead of raising, so one forged
        packet cannot mask the rest of the burst.
        """
        plaintexts = []
        for packet in packets:
            try:
                plaintexts.append(self.unprotect(packet))
            except ChannelError:
                plaintexts.append(None)
        return plaintexts

    def unprotect(self, packet: VpnPacket) -> bytes:
        """Authenticate and (if encrypted) decrypt a DATA packet body."""
        tail = packet.body
        boundary = len(tail) - TAG_LEN
        if boundary < 0:
            self.rejected.inc()
            raise ChannelError("data packet too short")
        # split ciphertext and tag as zero-copy views — the body may
        # itself be a view over the datagram buffer (see module docs)
        view = memoryview(tail) if type(tail) is bytes else tail
        sealed = view[:boundary]
        mac = view[boundary:]
        # auth_header() covers only the fixed header fields, so the MAC
        # input is (header, ciphertext) fed as chunks — no throwaway
        # packet object and no header+payload concat on the packet path
        if not hmac_verify(self._hmac_key, packet.auth_header(), sealed, mac):
            self.rejected.inc()
            raise ChannelError("data packet failed authentication")
        self.bytes_unprotected.inc(boundary)
        if self.mode is ProtectionMode.ENCRYPT_AND_MAC:
            return self._cipher.decrypt(self._nonce(packet.session_id, packet.packet_id), sealed)
        return bytes(sealed)

"""VPN wire format.

Every UDP datagram between client and server is one :class:`VpnPacket`::

    opcode(1) | session_id(8) | packet_id(8) |
    frag_id(4) | frag_index(2) | frag_count(2) | body

``packet_id`` feeds replay protection; the fragment triple reassembles
tunnel packets larger than the link MTU.  Control bodies are opcode
specific; DATA bodies are ``ciphertext || hmac_tag``.

Buffer model: DATA bodies may be :class:`memoryview` slices carved over
an immutable receive buffer (zero-copy parse) or plain ``bytes``;
``serialize`` accepts either form and emits identical wire bytes.
Control bodies are always materialised ``bytes`` — control handlers
decode/JSON-parse them and may hold them across events, so ownership
transfers at the parse boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

OP_DATA = 1
OP_CONTROL_HELLO = 2
OP_CONTROL_REPLY = 3
OP_PING = 4
OP_REJECT = 5

_HEADER = struct.Struct(">BQQIHH")
HEADER_LEN = _HEADER.size  # 25 bytes


class ProtocolError(ValueError):
    """Malformed VPN packet."""


@dataclass
class VpnPacket:
    opcode: int
    session_id: int
    packet_id: int
    body: bytes = b""
    frag_id: int = 0
    frag_index: int = 0
    frag_count: int = 1

    def serialize(self) -> bytes:
        """Serialize to wire bytes (body may be ``bytes`` or a view)."""
        tail = self.body
        if type(tail) is not bytes:
            tail = bytes(tail)
        return (
            _HEADER.pack(
                self.opcode,
                self.session_id,
                self.packet_id,
                self.frag_id,
                self.frag_index,
                self.frag_count,
            )
            + tail
        )

    @classmethod
    def parse(cls, data: bytes) -> "VpnPacket":
        if len(data) < HEADER_LEN:
            raise ProtocolError("truncated VPN packet")
        opcode, session_id, packet_id, frag_id, frag_index, frag_count = _HEADER.unpack_from(data)
        if frag_count < 1 or frag_index >= frag_count:
            raise ProtocolError("invalid fragment fields")
        if opcode == OP_DATA:
            # zero-copy body: carve a view over the (immutable) datagram
            # buffer; the data channel MAC-checks and decrypts straight
            # from the view without ever copying ciphertext + tag
            tail = memoryview(data)[HEADER_LEN:]
        else:
            # control bodies are decoded and may outlive the datagram:
            # materialise once here, at the ownership boundary
            view = memoryview(data)
            tail = bytes(view[HEADER_LEN:])
        return cls(
            opcode=opcode,
            session_id=session_id,
            packet_id=packet_id,
            body=tail,
            frag_id=frag_id,
            frag_index=frag_index,
            frag_count=frag_count,
        )

    def auth_header(self) -> bytes:
        """The header bytes covered by the data-channel MAC."""
        return _HEADER.pack(
            self.opcode, self.session_id, self.packet_id, self.frag_id, self.frag_index, self.frag_count
        )


def new_data_packet(
    session_id: int, packet_id: int, frag_id: int = 0, frag_index: int = 0, frag_count: int = 1
) -> VpnPacket:
    """Construct an ``OP_DATA`` packet without dataclass ``__init__``.

    :class:`repro.vpn.openvpn.Tunnel` builds one packet per fragment
    with it; direct slot assignment skips the generated constructor's
    default processing.  Semantically
    identical to ``VpnPacket(OP_DATA, session_id, packet_id, ...)``.
    """
    packet = VpnPacket.__new__(VpnPacket)
    packet.opcode = OP_DATA
    packet.session_id = session_id
    packet.packet_id = packet_id
    packet.body = b""
    packet.frag_id = frag_id
    packet.frag_index = frag_index
    packet.frag_count = frag_count
    return packet

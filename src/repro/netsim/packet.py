"""Binary-faithful packet formats: IPv4, UDP, TCP, ICMP.

The wire formats follow the real header layouts (IPv4 without options,
20-byte TCP header, 8-byte UDP and ICMP-echo headers) so that byte-level
operations in the VPN and middlebox layers — encryption, MAC computation,
header rewriting, the 0xEB QoS flagging trick from §IV-A — behave exactly
as they would on real packets.

Checksums are computed with the genuine Internet checksum algorithm.  The
TOS/DSCP byte is first-class because EndBox's client-to-client
optimisation stores its "already processed" flag there.

Buffer model (see DESIGN.md, "Zero-copy buffer model"): parsers accept
``bytes`` or ``memoryview`` input, read headers in place via
``unpack_from``, and materialise the payload exactly once — at the
ownership boundary where the parsed object takes over from the wire
buffer.  Serializers read payloads without intermediate slices and emit
one contiguous wire buffer (the single mandatory copy).  The
``new_udp``/``new_tcp``/``new_icmp``/``new_ipv4`` fast constructors
build packet objects for already-normalised fields without the
dataclass ``__init__``/``__post_init__`` overhead of the general
constructors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.netsim.addresses import IPv4Address

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: QoS/TOS value EndBox clients use to flag already-processed packets (§IV-A).
ENDBOX_PROCESSED_TOS = 0xEB

IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20
ICMP_HEADER_LEN = 8

# TCP flag bits
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

_UDP_HEADER = struct.Struct(">HHHH")
_TCP_HEADER = struct.Struct(">HHIIHHHH")
_ICMP_HEADER = struct.Struct(">BBHHH")
# src/dst as 32-bit integers (II): identical wire bytes to 4s4s, but
# packs straight from the interned IPv4Address.value without to_bytes()
_IP_HEADER = struct.Struct(">BBHHHBBHII")
_CHECKSUM_FIELD = struct.Struct(">H")


def internet_checksum(data) -> int:
    """RFC 1071 ones-complement checksum of a bytes-like buffer.

    Computed as one big-integer reduction rather than a per-word Python
    loop: since ``2**16 ≡ 1 (mod 0xFFFF)``, the end-around-carry sum of
    the 16-bit words equals ``int(data) % 0xFFFF`` — except that folding
    yields ``0xFFFF`` (not 0) for any non-zero input whose word sum is a
    multiple of 0xFFFF, which the explicit checks preserve.  Odd-length
    input is virtually zero-padded by shifting the integer one byte left
    instead of concatenating, so ``memoryview``/``bytearray`` input
    works without a copy.
    """
    big = int.from_bytes(data, "big")
    if len(data) % 2:
        big <<= 8
    if big == 0:
        return 0xFFFF
    total = big % 0xFFFF
    if total == 0:
        total = 0xFFFF
    return (~total) & 0xFFFF


def _ipv4_checksum_words(
    tos: int, size: int, identification: int, flags_frag: int, ttl: int, protocol: int, src: int, dst: int
) -> int:
    """The IPv4 header checksum, straight from the field values.

    Algebraically identical to :func:`internet_checksum` over the packed
    20-byte header with a zeroed checksum field: the ten header words
    are summed directly (the version/IHL byte 0x45 guarantees a non-zero
    word sum, so the all-zero edge case cannot occur).
    """
    folded = (
        (0x4500 | tos)
        + size
        + identification
        + flags_frag
        + ((ttl << 8) | protocol)
        + (src >> 16)
        + (src & 0xFFFF)
        + (dst >> 16)
        + (dst & 0xFFFF)
    ) % 0xFFFF
    if folded == 0:
        return 0  # ~0xFFFF & 0xFFFF after end-around folding
    return (~folded) & 0xFFFF


@dataclass
class UdpDatagram:
    """A UDP datagram (header + payload)."""

    src_port: int
    dst_port: int
    payload: bytes = b""

    protocol = PROTO_UDP

    def __len__(self) -> int:
        return UDP_HEADER_LEN + len(self.payload)

    def serialize(self) -> bytes:
        """Serialize to wire bytes."""
        tail = self.payload
        if type(tail) is not bytes:
            tail = bytes(tail)
        return _UDP_HEADER.pack(self.src_port, self.dst_port, UDP_HEADER_LEN + len(tail), 0) + tail

    @classmethod
    def parse(cls, data) -> "UdpDatagram":
        if len(data) < UDP_HEADER_LEN:
            raise ValueError("truncated UDP datagram")
        src, dst, length, _checksum = _UDP_HEADER.unpack_from(data)
        if length != len(data):
            raise ValueError(f"UDP length field {length} != datagram size {len(data)}")
        view = data if type(data) is memoryview else memoryview(data)
        dgram = cls.__new__(cls)
        dgram.src_port = src
        dgram.dst_port = dst
        # the one payload materialisation: the datagram owns its bytes
        dgram.payload = bytes(view[UDP_HEADER_LEN:])
        return dgram


@dataclass
class TcpSegment:
    """A TCP segment with the standard 20-byte header."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    payload: bytes = b""

    protocol = PROTO_TCP

    def __len__(self) -> int:
        return TCP_HEADER_LEN + len(self.payload)

    @property
    def syn(self) -> bool:
        return bool(self.flags & TCP_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & TCP_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & TCP_RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & TCP_ACK)

    def serialize(self) -> bytes:
        """Serialize to wire bytes."""
        tail = self.payload
        if type(tail) is not bytes:
            tail = bytes(tail)
        return (
            _TCP_HEADER.pack(
                self.src_port,
                self.dst_port,
                self.seq & 0xFFFFFFFF,
                self.ack & 0xFFFFFFFF,
                (5 << 12) | (self.flags & 0x3F),
                self.window,
                0,  # checksum (filled conceptually; omitted for speed)
                0,  # urgent pointer
            )
            + tail
        )

    @classmethod
    def parse(cls, data) -> "TcpSegment":
        if len(data) < TCP_HEADER_LEN:
            raise ValueError("truncated TCP segment")
        src, dst, seq, ack, offset_flags, window, _ck, _urg = _TCP_HEADER.unpack_from(data)
        data_offset = (offset_flags >> 12) * 4
        if data_offset < TCP_HEADER_LEN or data_offset > len(data):
            raise ValueError("bad TCP data offset")
        view = data if type(data) is memoryview else memoryview(data)
        segment = cls.__new__(cls)
        segment.src_port = src
        segment.dst_port = dst
        segment.seq = seq
        segment.ack = ack
        segment.flags = offset_flags & 0x3F
        segment.window = window
        segment.payload = bytes(view[data_offset:])
        return segment


@dataclass
class IcmpMessage:
    """ICMP echo request/reply (types 8 and 0)."""

    icmp_type: int
    code: int = 0
    identifier: int = 0
    sequence: int = 0
    payload: bytes = b""

    protocol = PROTO_ICMP
    ECHO_REQUEST = 8
    ECHO_REPLY = 0

    def __len__(self) -> int:
        return ICMP_HEADER_LEN + len(self.payload)

    def serialize(self) -> bytes:
        """Serialize to wire bytes."""
        tail = self.payload
        out = bytearray(ICMP_HEADER_LEN + len(tail))
        _ICMP_HEADER.pack_into(out, 0, self.icmp_type, self.code, 0, self.identifier, self.sequence)
        out[ICMP_HEADER_LEN:] = tail
        _CHECKSUM_FIELD.pack_into(out, 2, internet_checksum(out))
        return bytes(out)

    @classmethod
    def parse(cls, data) -> "IcmpMessage":
        if len(data) < ICMP_HEADER_LEN:
            raise ValueError("truncated ICMP message")
        icmp_type, code, _checksum, identifier, sequence = _ICMP_HEADER.unpack_from(data)
        view = data if type(data) is memoryview else memoryview(data)
        message = cls.__new__(cls)
        message.icmp_type = icmp_type
        message.code = code
        message.identifier = identifier
        message.sequence = sequence
        message.payload = bytes(view[ICMP_HEADER_LEN:])
        return message

    def make_reply(self) -> "IcmpMessage":
        """The echo reply for this echo request."""
        if self.icmp_type != self.ECHO_REQUEST:
            raise ValueError("can only reply to echo requests")
        return new_icmp(self.ECHO_REPLY, 0, self.identifier, self.sequence, self.payload)


L4Message = Union[UdpDatagram, TcpSegment, IcmpMessage, bytes]


@dataclass
class IPv4Packet:
    """An IPv4 packet carrying a parsed L4 message (or raw bytes).

    ``tos`` is the type-of-service byte; EndBox's client-to-client
    optimisation sets it to ``0xEB`` after Click processing.

    ``frag_offset`` (in 8-byte units) and ``more_fragments`` implement
    real IP fragmentation: large datagrams are split onto MTU-limited
    links and reassembled at the destination stack.  A fragment's ``l4``
    is always raw bytes.
    """

    src: IPv4Address
    dst: IPv4Address
    l4: L4Message = b""
    tos: int = 0
    ttl: int = 64
    identification: int = 0
    protocol: Optional[int] = None
    frag_offset: int = 0  # in 8-byte units
    more_fragments: bool = False

    def __post_init__(self) -> None:
        if type(self.src) is not IPv4Address:
            self.src = IPv4Address(self.src)
        if type(self.dst) is not IPv4Address:
            self.dst = IPv4Address(self.dst)
        if self.protocol is None:
            self.protocol = getattr(self.l4, "protocol", 0xFD)  # 0xFD: experimental

    @property
    def is_fragment(self) -> bool:
        return self.frag_offset > 0 or self.more_fragments

    @property
    def total_length(self) -> int:
        return IPV4_HEADER_LEN + self.l4_length

    @property
    def l4_length(self) -> int:
        return len(self.l4)

    def __len__(self) -> int:
        # inlined total_length: len(packet) runs once or twice per packet
        # on the ecall path (validator + cost charge), so it must not pay
        # two property descriptor hops
        return IPV4_HEADER_LEN + len(self.l4)

    def serialize(self) -> bytes:
        """Serialize to wire bytes."""
        l4 = self.l4
        tail = l4 if isinstance(l4, bytes) else l4.serialize()
        flags_frag = (0x2000 if self.more_fragments else 0) | (self.frag_offset & 0x1FFF)
        size = IPV4_HEADER_LEN + len(tail)
        src = self.src.value
        dst = self.dst.value
        # checksum from the field values (no zeroed-header round trip),
        # then a single pack and a single header||body concat
        checksum = _ipv4_checksum_words(
            self.tos, size, self.identification, flags_frag, self.ttl, self.protocol, src, dst
        )
        return (
            _IP_HEADER.pack(
                0x45,  # version 4, IHL 5
                self.tos,
                size,
                self.identification,
                flags_frag,
                self.ttl,
                self.protocol,
                checksum,
                src,
                dst,
            )
            + tail
        )

    _COPY_FIELDS = frozenset(
        (
            "src",
            "dst",
            "l4",
            "tos",
            "ttl",
            "identification",
            "protocol",
            "frag_offset",
            "more_fragments",
        )
    )

    def copy(self, **changes) -> "IPv4Packet":
        """A modified copy (same semantics as ``dataclasses.replace``,
        hand-rolled to skip its per-call field introspection and, for
        the c2c-flagging hot path, the constructor itself)."""
        clone = object.__new__(IPv4Packet)
        clone.src = self.src
        clone.dst = self.dst
        clone.l4 = self.l4
        clone.tos = self.tos
        clone.ttl = self.ttl
        clone.identification = self.identification
        clone.protocol = self.protocol
        clone.frag_offset = self.frag_offset
        clone.more_fragments = self.more_fragments
        if changes:
            for name, value in changes.items():
                if name not in IPv4Packet._COPY_FIELDS:
                    raise TypeError(f"unexpected field {name!r}")
                setattr(clone, name, value)
            clone.__post_init__()  # renormalise src/dst/protocol
        return clone

    # ------------------------------------------------------------------
    # IP fragmentation
    # ------------------------------------------------------------------
    def fragment(self, mtu: int) -> Sequence["IPv4Packet"]:
        """Split into fragments that fit ``mtu`` (header included)."""
        l4 = self.l4
        tail = l4 if isinstance(l4, bytes) else l4.serialize()
        max_body = ((mtu - IPV4_HEADER_LEN) // 8) * 8
        if max_body <= 0:
            raise ValueError(f"MTU {mtu} too small for IPv4")
        size = len(tail)
        if size + IPV4_HEADER_LEN <= mtu and not self.is_fragment:
            return (self,)
        fragments = []
        append = fragments.append
        offset = 0
        while offset < size:
            end = offset + max_body
            # each fragment owns its body slice: a required copy, since
            # fragments outlive this call on independent link queues
            part = tail[offset:end]
            append(
                new_ipv4(
                    self.src,
                    self.dst,
                    part,
                    self.tos,
                    self.ttl,
                    self.identification,
                    self.protocol,
                    self.frag_offset + (offset >> 3),
                    (end < size) or self.more_fragments,
                )
            )
            offset = end
        return fragments


# ----------------------------------------------------------------------
# fast constructors
# ----------------------------------------------------------------------
# Semantically identical to the dataclass constructors for
# already-normalised arguments (ports/fields in wire range; src/dst as
# IPv4Address instances for new_ipv4).  The per-packet paths — parsers,
# fragmentation, the TCP send path, wire-frame snapshots — build one
# object per packet, where skipping the generated __init__ (and
# __post_init__'s re-coercion of known-good fields) is a measurable win.


def new_udp(src_port: int, dst_port: int, payload: bytes) -> UdpDatagram:
    """Build a :class:`UdpDatagram` from already-normalised fields."""
    dgram = UdpDatagram.__new__(UdpDatagram)
    dgram.src_port = src_port
    dgram.dst_port = dst_port
    dgram.payload = payload
    return dgram


def new_tcp(
    src_port: int, dst_port: int, seq: int, ack: int, flags: int, window: int, payload: bytes
) -> TcpSegment:
    """Build a :class:`TcpSegment` from already-normalised fields."""
    segment = TcpSegment.__new__(TcpSegment)
    segment.src_port = src_port
    segment.dst_port = dst_port
    segment.seq = seq
    segment.ack = ack
    segment.flags = flags
    segment.window = window
    segment.payload = payload
    return segment


def new_icmp(icmp_type: int, code: int, identifier: int, sequence: int, payload: bytes) -> IcmpMessage:
    """Build an :class:`IcmpMessage` from already-normalised fields."""
    message = IcmpMessage.__new__(IcmpMessage)
    message.icmp_type = icmp_type
    message.code = code
    message.identifier = identifier
    message.sequence = sequence
    message.payload = payload
    return message


def new_ipv4(
    src: IPv4Address,
    dst: IPv4Address,
    l4: L4Message,
    tos: int = 0,
    ttl: int = 64,
    identification: int = 0,
    protocol: Optional[int] = None,
    frag_offset: int = 0,
    more_fragments: bool = False,
) -> IPv4Packet:
    """Build an :class:`IPv4Packet`; ``src``/``dst`` must be addresses.

    ``protocol`` defaults to the L4 message's own protocol number
    (0xFD for raw bytes), matching ``__post_init__``.
    """
    packet = IPv4Packet.__new__(IPv4Packet)
    packet.src = src
    packet.dst = dst
    packet.l4 = l4
    packet.tos = tos
    packet.ttl = ttl
    packet.identification = identification
    packet.protocol = protocol if protocol is not None else getattr(l4, "protocol", 0xFD)
    packet.frag_offset = frag_offset
    packet.more_fragments = more_fragments
    return packet


class WireFrame:
    """A cut-through stand-in for a serialized packet on a link.

    Links and interfaces treat frames opaquely (length for delay and
    byte counters, FIFO queueing); only the far end parses.  When a
    packet provably round-trips — :func:`fast_wire_frame` admits it —
    the wire bytes are never materialised: the frame carries a snapshot
    packet object equal to ``parse_ipv4(packet.serialize())``, built
    once at send time (so later mutation of the original cannot leak
    into frames already in flight, exactly like a byte snapshot).

    ``len(frame)`` equals the serialized length, so transmission delay,
    MTU checks and interface byte counters are unchanged.  Only
    :func:`fast_wire_frame` builds frames.
    """

    __slots__ = ("packet", "_length")

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WireFrame {self.packet!r}>"


def fast_wire_frame(packet: IPv4Packet) -> Optional[WireFrame]:
    """Snapshot ``packet`` as a :class:`WireFrame`, or None when
    ineligible (caller then serializes for real).

    Eligibility mirrors what ``parse_ipv4(packet.serialize())`` does:
    every field must survive the round trip unchanged (no fragments, no
    raw-bytes L4, all header fields in wire range, L4 fields within the
    masks parse applies).  Anything unusual — crafted packets from
    attack scenarios, out-of-range values that serialize would reject —
    falls back to the byte path and behaves exactly as before.
    """
    if packet.frag_offset or packet.more_fragments:
        return None
    if not (
        0 <= packet.tos <= 0xFF
        and 0 <= packet.ttl <= 0xFF
        and 0 <= packet.identification <= 0xFFFF
    ):
        return None
    l4 = packet.l4
    l4_type = type(l4)
    if l4_type is UdpDatagram:
        if (
            packet.protocol != PROTO_UDP
            or type(l4.payload) is not bytes
            or not (0 <= l4.src_port <= 0xFFFF and 0 <= l4.dst_port <= 0xFFFF)
        ):
            return None
        new_l4: L4Message = new_udp(l4.src_port, l4.dst_port, l4.payload)
    elif l4_type is TcpSegment:
        if (
            packet.protocol != PROTO_TCP
            or type(l4.payload) is not bytes
            or not (0 <= l4.src_port <= 0xFFFF and 0 <= l4.dst_port <= 0xFFFF)
            or not 0 <= l4.window <= 0xFFFF
            or l4.seq != l4.seq & 0xFFFFFFFF
            or l4.ack != l4.ack & 0xFFFFFFFF
            or l4.flags != l4.flags & 0x3F
        ):
            return None
        new_l4 = new_tcp(l4.src_port, l4.dst_port, l4.seq, l4.ack, l4.flags, l4.window, l4.payload)
    elif l4_type is IcmpMessage:
        if (
            packet.protocol != PROTO_ICMP
            or type(l4.payload) is not bytes
            or not (0 <= l4.icmp_type <= 0xFF and 0 <= l4.code <= 0xFF)
            or not (0 <= l4.identifier <= 0xFFFF and 0 <= l4.sequence <= 0xFFFF)
        ):
            return None
        new_l4 = new_icmp(l4.icmp_type, l4.code, l4.identifier, l4.sequence, l4.payload)
    else:
        return None
    total = IPV4_HEADER_LEN + len(new_l4)
    if total > 0xFFFF:
        return None  # serialize would overflow the length field; use it
    snapshot = new_ipv4(
        packet.src,
        packet.dst,
        new_l4,
        packet.tos,
        packet.ttl,
        packet.identification,
        packet.protocol,
    )
    frame = WireFrame.__new__(WireFrame)
    frame.packet = snapshot
    frame._length = total
    return frame


def parse_ipv4(data, verify_checksum: bool = False) -> IPv4Packet:
    """Parse a bytes-like buffer into an :class:`IPv4Packet`.

    Header fields are read in place (no header slice); the L4 payload is
    materialised exactly once, inside the L4 parser (or here for raw and
    fragment bodies).
    """
    if len(data) < IPV4_HEADER_LEN:
        raise ValueError("truncated IPv4 packet")
    (
        version_ihl,
        tos,
        total_length,
        identification,
        flags_frag,
        ttl,
        protocol,
        checksum,
        src_value,
        dst_value,
    ) = _IP_HEADER.unpack_from(data)
    if version_ihl != 0x45:
        raise ValueError(f"unsupported version/IHL byte 0x{version_ihl:02x}")
    if total_length != len(data):
        raise ValueError(f"IPv4 length field {total_length} != buffer size {len(data)}")
    if verify_checksum:
        expected = _ipv4_checksum_words(
            tos, total_length, identification, flags_frag, ttl, protocol, src_value, dst_value
        )
        if expected != checksum:
            raise ValueError("IPv4 header checksum mismatch")
    view = data if type(data) is memoryview else memoryview(data)
    src = IPv4Address.from_value(src_value)
    dst = IPv4Address.from_value(dst_value)
    more_fragments = flags_frag & 0x2000
    frag_offset = flags_frag & 0x1FFF
    if more_fragments or frag_offset:
        # fragments keep a raw body; L4 parsing happens after reassembly
        return new_ipv4(
            src,
            dst,
            bytes(view[IPV4_HEADER_LEN:]),
            tos,
            ttl,
            identification,
            protocol,
            frag_offset,
            bool(more_fragments),
        )
    l4: L4Message
    if protocol == PROTO_UDP:
        l4 = UdpDatagram.parse(view[IPV4_HEADER_LEN:])
    elif protocol == PROTO_TCP:
        l4 = TcpSegment.parse(view[IPV4_HEADER_LEN:])
    elif protocol == PROTO_ICMP:
        l4 = IcmpMessage.parse(view[IPV4_HEADER_LEN:])
    else:
        l4 = bytes(view[IPV4_HEADER_LEN:])
    return new_ipv4(src, dst, l4, tos, ttl, identification, protocol)

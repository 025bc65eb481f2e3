"""Packet format tests: serialization round-trips and checksums."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    IPv4Address,
    IPv4Network,
    IPv4Packet,
    IcmpMessage,
    TcpSegment,
    UdpDatagram,
    parse_ipv4,
)
from repro.netsim.addresses import INTERN_LIMIT
from repro.netsim.packet import ENDBOX_PROCESSED_TOS, internet_checksum


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------
def test_address_parse_and_format():
    addr = IPv4Address("10.1.2.3")
    assert str(addr) == "10.1.2.3"
    assert addr.value == (10 << 24) | (1 << 16) | (2 << 8) | 3
    assert IPv4Address(addr.value) == addr


def test_address_interning_makes_equal_objects_identical():
    assert IPv4Address("10.0.0.1") is IPv4Address("10.0.0.1")


def test_address_intern_table_stays_bounded_under_a_source_flood(monkeypatch):
    # the gateway parses both addresses of every inner packet it opens:
    # a client sending from ever new (spoofed) sources must not grow
    # the table for good
    monkeypatch.setattr(IPv4Address, "_intern", dict(IPv4Address._intern))
    before = len(IPv4Address._intern)
    wire = bytearray(
        IPv4Packet(src="10.8.0.2", dst="10.0.0.2", l4=UdpDatagram(4000, 5000, b"x")).serialize()
    )
    rng = random.Random(50_000)
    for _ in range(50_000):
        source = rng.getrandbits(32)
        wire[12:16] = source.to_bytes(4, "big")
        assert parse_ipv4(bytes(wire)).src.value == source
    assert len(IPv4Address._intern) - before <= INTERN_LIMIT
    # past the bound an address is built afresh, equal but not identical
    assert IPv4Address(source) == IPv4Address(source)


def test_address_rejects_garbage():
    with pytest.raises(ValueError):
        IPv4Address("10.0.0")
    with pytest.raises(ValueError):
        IPv4Address("10.0.0.300")
    with pytest.raises(TypeError):
        IPv4Address(3.14)


def test_address_bytes_roundtrip():
    addr = IPv4Address("192.168.1.254")
    assert IPv4Address.from_bytes(addr.to_bytes()) == addr


def test_network_membership_and_hosts():
    net = IPv4Network("10.8.0.0/24")
    assert "10.8.0.7" in net
    assert "10.9.0.7" not in net
    assert str(net.host(1)) == "10.8.0.1"
    with pytest.raises(ValueError):
        net.host(300)


def test_network_prefix_normalisation():
    net = IPv4Network("10.8.0.99/24")
    assert str(net.network) == "10.8.0.0"


# ----------------------------------------------------------------------
# L4 formats
# ----------------------------------------------------------------------
def test_udp_roundtrip():
    dg = UdpDatagram(1194, 5001, b"hello vpn")
    parsed = UdpDatagram.parse(dg.serialize())
    assert (parsed.src_port, parsed.dst_port, parsed.payload) == (1194, 5001, b"hello vpn")


def test_udp_length_validation():
    data = UdpDatagram(1, 2, b"abc").serialize()
    with pytest.raises(ValueError):
        UdpDatagram.parse(data[:-1])


def test_tcp_roundtrip_flags_and_seq():
    seg = TcpSegment(80, 40000, seq=123456, ack=654321, flags=0x12, window=1000, payload=b"GET /")
    parsed = TcpSegment.parse(seg.serialize())
    assert parsed.seq == 123456
    assert parsed.ack == 654321
    assert parsed.syn and parsed.has_ack and not parsed.fin
    assert parsed.payload == b"GET /"


def test_icmp_echo_roundtrip_and_reply():
    req = IcmpMessage(IcmpMessage.ECHO_REQUEST, 0, 7, 3, b"ping-payload")
    parsed = IcmpMessage.parse(req.serialize())
    assert parsed.identifier == 7 and parsed.sequence == 3
    reply = parsed.make_reply()
    assert reply.icmp_type == IcmpMessage.ECHO_REPLY
    assert reply.payload == b"ping-payload"
    with pytest.raises(ValueError):
        reply.make_reply()


# ----------------------------------------------------------------------
# IPv4
# ----------------------------------------------------------------------
def test_ipv4_udp_roundtrip():
    packet = IPv4Packet(
        src="10.0.0.1", dst="10.0.0.2", l4=UdpDatagram(1000, 2000, b"x" * 100), tos=0x10
    )
    parsed = parse_ipv4(packet.serialize(), verify_checksum=True)
    assert parsed.src == IPv4Address("10.0.0.1")
    assert parsed.tos == 0x10
    assert isinstance(parsed.l4, UdpDatagram)
    assert parsed.l4.payload == b"x" * 100


def test_ipv4_checksum_detects_corruption():
    data = bytearray(IPv4Packet(src="10.0.0.1", dst="10.0.0.2", l4=b"raw").serialize())
    data[12] ^= 0xFF  # flip a src-address byte
    with pytest.raises(ValueError):
        parse_ipv4(bytes(data), verify_checksum=True)


def test_ipv4_qos_flag_survives_serialization():
    packet = IPv4Packet(src="1.2.3.4", dst="5.6.7.8", l4=b"", tos=ENDBOX_PROCESSED_TOS)
    assert parse_ipv4(packet.serialize()).tos == ENDBOX_PROCESSED_TOS


def test_ipv4_length_field_validated():
    data = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=b"abcd").serialize()
    with pytest.raises(ValueError):
        parse_ipv4(data + b"extra")


def test_ipv4_copy_keeps_other_fields():
    packet = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=b"abcd", ttl=9)
    copied = packet.copy(ttl=8)
    assert copied.ttl == 8 and copied.src == packet.src and copied.l4 == packet.l4


def test_internet_checksum_known_value():
    # classic example from RFC 1071 discussions
    data = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
    header = data[:10] + b"\x00\x00" + data[12:]
    assert internet_checksum(header) == 0xB861


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.binary(min_size=0, max_size=2000),
    st.integers(min_value=0, max_value=255),
)
def test_ipv4_roundtrip_property(src, dst, payload, tos):
    packet = IPv4Packet(src=src, dst=dst, l4=UdpDatagram(1, 2, payload), tos=tos)
    parsed = parse_ipv4(packet.serialize(), verify_checksum=True)
    assert parsed.src.value == src
    assert parsed.dst.value == dst
    assert parsed.tos == tos
    assert parsed.l4.payload == payload

"""Unit tests for VPN building blocks: protocol, replay, channel,
fragmentation, pings, handshake."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaKeyPair
from repro.crypto.x25519 import X25519PrivateKey
from repro.vpn import (
    ChannelError,
    DataChannel,
    Fragmenter,
    PingMessage,
    ProtectionMode,
    Reassembler,
    ReplayWindow,
    VpnPacket,
)
from repro.vpn.handshake import (
    Certificate,
    ClientKeyExchange,
    HandshakeError,
    ServerKeyExchange,
    issue_certificate,
)
from repro.vpn.ping import PingError
from repro.vpn.protocol import OP_DATA, ProtocolError


@pytest.fixture(scope="module")
def ca():
    return RsaKeyPair(bits=1024, seed=b"test-ca")


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
def test_vpn_packet_roundtrip():
    packet = VpnPacket(OP_DATA, 7, 42, b"payload", frag_id=3, frag_index=1, frag_count=2)
    parsed = VpnPacket.parse(packet.serialize())
    assert parsed == packet


def test_vpn_packet_rejects_bad_fragment_fields():
    data = VpnPacket(OP_DATA, 1, 1, b"x", frag_index=0, frag_count=1).serialize()
    broken = data[:21] + (3).to_bytes(2, "big") + (2).to_bytes(2, "big") + data[25:]
    with pytest.raises(ProtocolError):
        VpnPacket.parse(broken)


def test_vpn_packet_truncated():
    with pytest.raises(ProtocolError):
        VpnPacket.parse(b"short")


# ----------------------------------------------------------------------
# replay window
# ----------------------------------------------------------------------
def test_replay_accepts_monotonic_ids():
    window = ReplayWindow()
    assert all(window.check_and_update(i) for i in range(1, 100))


def test_replay_rejects_duplicates():
    window = ReplayWindow()
    assert window.check_and_update(5)
    assert not window.check_and_update(5)


def test_replay_accepts_in_window_out_of_order():
    window = ReplayWindow()
    assert window.check_and_update(10)
    assert window.check_and_update(7)
    assert not window.check_and_update(7)


def test_replay_rejects_too_old():
    window = ReplayWindow(size=64)
    assert window.check_and_update(100)
    assert not window.check_and_update(30)  # 70 behind > window


def test_replay_rejects_nonpositive():
    window = ReplayWindow()
    assert not window.check_and_update(0)
    assert not window.check_and_update(-3)


def test_replay_jump_past_the_window_resets_the_bitmap():
    window = ReplayWindow()
    assert all(window.check_and_update(i) for i in range(1, 20))
    # a shift by 2**63 cannot be computed; the jump empties the window
    assert window.check_and_update(2**63)
    assert not window.check_and_update(2**63)
    assert window.check_and_update(2**63 - 1)
    assert not window.check_and_update(19)  # far behind the new top
    assert window.check_and_update(2**63 + 64)
    assert window.would_accept(2**63 + 1)
    assert not window.would_accept(2**63)  # 64 behind: out of the window


def test_replay_would_accept_is_pure():
    window = ReplayWindow()
    window.check_and_update(5)
    assert window.would_accept(6)
    assert window.would_accept(6)  # unchanged
    assert not window.would_accept(5)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=100))
def test_replay_never_accepts_same_id_twice(ids):
    window = ReplayWindow()
    accepted = [i for i in ids if window.check_and_update(i)]
    assert len(accepted) == len(set(accepted))


# ----------------------------------------------------------------------
# data channel
# ----------------------------------------------------------------------
def make_channels(mode=ProtectionMode.ENCRYPT_AND_MAC):
    tx = DataChannel(b"cipherkey0123456", b"hmackey-01234567", mode)
    rx = DataChannel(b"cipherkey0123456", b"hmackey-01234567", mode)
    return tx, rx


def test_channel_roundtrip_encrypted():
    tx, rx = make_channels()
    packet = VpnPacket(OP_DATA, 9, 1)
    tx.protect(packet, b"inner ip packet bytes")
    assert packet.body != b"inner ip packet bytes"  # actually encrypted
    assert rx.unprotect(packet) == b"inner ip packet bytes"


def test_channel_mac_only_leaves_plaintext_visible():
    tx, rx = make_channels(ProtectionMode.MAC_ONLY)
    packet = VpnPacket(OP_DATA, 9, 1)
    tx.protect(packet, b"visible bytes")
    assert packet.body.startswith(b"visible bytes")  # ISP mode: no encryption
    assert rx.unprotect(packet) == b"visible bytes"


def test_channel_detects_payload_tampering():
    tx, rx = make_channels()
    packet = VpnPacket(OP_DATA, 9, 1)
    tx.protect(packet, b"data")
    packet.body = bytes([packet.body[0] ^ 0xFF]) + packet.body[1:]
    with pytest.raises(ChannelError):
        rx.unprotect(packet)


def test_channel_detects_header_tampering():
    tx, rx = make_channels(ProtectionMode.MAC_ONLY)
    packet = VpnPacket(OP_DATA, 9, 1)
    tx.protect(packet, b"data")
    packet.packet_id = 999  # attacker rewrites the replay counter
    with pytest.raises(ChannelError):
        rx.unprotect(packet)


def test_channel_wrong_key_rejected():
    tx, _ = make_channels()
    rx = DataChannel(b"cipherkey0123456", b"DIFFERENT-hmackey0", ProtectionMode.ENCRYPT_AND_MAC)
    packet = VpnPacket(OP_DATA, 9, 1)
    tx.protect(packet, b"data")
    with pytest.raises(ChannelError):
        rx.unprotect(packet)


# ----------------------------------------------------------------------
# fragmentation
# ----------------------------------------------------------------------
def test_fragment_small_payload_single_piece():
    frag = Fragmenter(max_payload=100)
    _id, pieces = frag.split(b"x" * 50)
    assert pieces == [b"x" * 50]


def test_fragment_and_reassemble_large_payload():
    frag = Fragmenter(max_payload=100)
    data = bytes(range(256)) * 2  # 512 bytes -> 6 pieces
    frag_id, pieces = frag.split(data)
    assert len(pieces) == 6
    reasm = Reassembler()
    result = None
    for index, piece in enumerate(pieces):
        result = reasm.add(1, frag_id, index, len(pieces), piece)
    assert result == data


def test_reassembly_out_of_order():
    frag = Fragmenter(max_payload=10)
    data = b"0123456789abcdefghij"
    frag_id, pieces = frag.split(data)
    reasm = Reassembler()
    assert reasm.add(1, frag_id, 1, 2, pieces[1]) is None
    assert reasm.add(1, frag_id, 0, 2, pieces[0]) == data


def test_reassembly_groups_are_per_session():
    reasm = Reassembler()
    assert reasm.add(1, 5, 0, 2, b"aa") is None
    assert reasm.add(2, 5, 1, 2, b"bb") is None  # different session
    assert reasm.add(1, 5, 1, 2, b"cc") == b"aacc"


def test_reassembly_bounded_table_evicts_oldest():
    reasm = Reassembler(max_groups=2)
    reasm.add(1, 1, 0, 2, b"a")
    reasm.add(1, 2, 0, 2, b"b")
    reasm.add(1, 3, 0, 2, b"c")  # evicts group 1
    assert reasm.dropped_groups == 1
    assert reasm.add(1, 1, 1, 2, b"z") is None  # group 1 restarts, incomplete


def test_reassembly_single_fragment_requires_index_zero():
    """Regression: the count==1 fast path used to skip index validation."""
    from repro.vpn.fragment import FragmentError

    reasm = Reassembler()
    with pytest.raises(FragmentError):
        reasm.add(1, 7, 1, 1, b"x")
    with pytest.raises(FragmentError):
        reasm.add(1, 7, -1, 2, b"x")  # would have written group[-1]
    assert reasm.add(1, 7, 0, 1, b"x") == b"x"


def test_reassembly_duplicate_fragment_dropped_first_wins():
    """Regression: a duplicate used to silently overwrite the stored body."""
    reasm = Reassembler()
    assert reasm.add(1, 9, 0, 2, b"first") is None
    assert reasm.add(1, 9, 0, 2, b"SPOOF") is None
    assert reasm.duplicate_fragments == 1
    assert reasm.add(1, 9, 1, 2, b"tail") == b"firsttail"


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=40000), st.integers(min_value=1, max_value=9000))
def test_fragment_roundtrip_property(data, max_payload):
    frag = Fragmenter(max_payload=max_payload)
    frag_id, pieces = frag.split(data)
    assert all(len(p) <= max_payload for p in pieces)
    reasm = Reassembler()
    result = None
    for index, piece in enumerate(pieces):
        result = reasm.add(1, frag_id, index, len(pieces), piece)
    assert result == data


# ----------------------------------------------------------------------
# pings
# ----------------------------------------------------------------------
def test_ping_roundtrip():
    ping = PingMessage(config_version=7, grace_period_s=30.0, timestamp_ns=123)
    parsed = PingMessage.parse(ping.serialize(b"k" * 16), b"k" * 16)
    assert parsed == ping


def test_ping_rejects_forgery():
    ping = PingMessage(config_version=7, grace_period_s=30.0)
    data = ping.serialize(b"k" * 16)
    with pytest.raises(PingError):
        PingMessage.parse(data, b"wrong-key-000000")
    tampered = data[:4] + b"\xff" + data[5:]
    with pytest.raises(PingError):
        PingMessage.parse(tampered, b"k" * 16)


# ----------------------------------------------------------------------
# control-channel handshake
# ----------------------------------------------------------------------
def make_identity(ca, name, seed):
    key = X25519PrivateKey(HmacDrbg(seed).generate(32))
    cert = issue_certificate(ca, name, key.public_bytes)
    return key, cert


def test_certificate_verify(ca):
    _key, cert = make_identity(ca, "client-1", b"c1")
    assert cert.verify(ca.public_key)
    other_ca = RsaKeyPair(bits=1024, seed=b"other")
    assert not cert.verify(other_ca.public_key)


def test_certificate_parse_roundtrip(ca):
    _key, cert = make_identity(ca, "client-1", b"c1")
    assert Certificate.parse(cert.serialize()) == cert


def test_certificate_with_non_canonical_signature_rejected(ca):
    _key, cert = make_identity(ca, "client-1", b"c1")
    shifted = Certificate(
        cert.subject, cert.public_key, cert.not_after_version, cert.signature + 5 * ca.n
    )
    reparsed = Certificate.parse(shifted.serialize())
    assert reparsed.serialize() != cert.serialize()
    assert not reparsed.verify(ca.public_key)


def test_key_exchange_mutual_agreement(ca):
    c_key, c_cert = make_identity(ca, "client-1", b"c1")
    s_key, s_cert = make_identity(ca, "vpn-server", b"s1")
    client = ClientKeyExchange(c_key, c_cert, ca.public_key, HmacDrbg(b"ce"), server_name="vpn-server")
    server = ServerKeyExchange(s_key, s_cert, ca.public_key, HmacDrbg(b"se"))
    reply, server_secrets, seen_cert, version = server.process_hello(client.hello(config_version=3))
    assert seen_cert.subject == "client-1" and version == 3
    client.process_reply(reply)
    assert client.secrets.client_cipher == server_secrets.client_cipher
    assert client.secrets.server_hmac == server_secrets.server_hmac


def test_key_exchange_rejects_uncertified_client(ca):
    rogue_ca = RsaKeyPair(bits=1024, seed=b"rogue")
    c_key, c_cert = make_identity(rogue_ca, "mallory", b"m")
    s_key, s_cert = make_identity(ca, "vpn-server", b"s1")
    client = ClientKeyExchange(c_key, c_cert, ca.public_key, HmacDrbg(b"ce"))
    server = ServerKeyExchange(s_key, s_cert, ca.public_key, HmacDrbg(b"se"))
    with pytest.raises(HandshakeError):
        server.process_hello(client.hello())


def test_key_exchange_client_rejects_fake_server(ca):
    rogue_ca = RsaKeyPair(bits=1024, seed=b"rogue")
    c_key, c_cert = make_identity(ca, "client-1", b"c1")
    s_key, s_cert = make_identity(rogue_ca, "vpn-server", b"s1")
    client = ClientKeyExchange(c_key, c_cert, ca.public_key, HmacDrbg(b"ce"))
    # the rogue server presents a rogue-CA cert but verifies clients
    # against the real CA (so the handshake reaches the client-side check)
    server = ServerKeyExchange(s_key, s_cert, ca.public_key, HmacDrbg(b"se"))
    reply, _secrets, _cert, _v = server.process_hello(client.hello())
    with pytest.raises(HandshakeError):
        client.process_reply(reply)


def test_key_exchange_server_name_pinning(ca):
    c_key, c_cert = make_identity(ca, "client-1", b"c1")
    s_key, s_cert = make_identity(ca, "impostor", b"s2")
    client = ClientKeyExchange(c_key, c_cert, ca.public_key, HmacDrbg(b"ce"), server_name="vpn-server")
    server = ServerKeyExchange(s_key, s_cert, ca.public_key, HmacDrbg(b"se"))
    reply, *_ = server.process_hello(client.hello())
    with pytest.raises(HandshakeError):
        client.process_reply(reply)

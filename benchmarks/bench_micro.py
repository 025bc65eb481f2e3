"""Microbenchmarks of the hot primitives (real wall-clock, many rounds).

Unlike the figure/table benches (which measure *simulated* time), these
measure the Python implementation itself — useful for keeping the
functional datapath fast enough that big simulations stay tractable.
"""

import pytest

from repro.click import Router, configs
from repro.crypto import KeystreamCipher, hmac_sha256
from repro.ids import AhoCorasick, community_ruleset
from repro.netsim import IPv4Packet, UdpDatagram, parse_ipv4
from repro.netsim.traffic import make_payload
from repro.vpn.channel import DataChannel, ProtectionMode
from repro.vpn.protocol import OP_DATA, VpnPacket

PAYLOAD_1500 = make_payload(1500)


def test_micro_keystream_1500(benchmark):
    cipher = KeystreamCipher(b"k" * 32)
    benchmark(cipher.encrypt, b"nonce", PAYLOAD_1500)


def test_micro_hmac_1500(benchmark):
    benchmark(hmac_sha256, b"key-material-16b", PAYLOAD_1500)


def test_micro_aho_corasick_scan_1500(benchmark):
    rules = community_ruleset()
    automaton = AhoCorasick(
        [c.pattern for rule in rules for c in rule.contents]
    )
    automaton.scan(b"warmup")
    payload = PAYLOAD_1500 + b"unique-tail"

    result = benchmark(automaton.scan, payload)
    assert result == []


def test_micro_click_nop_traversal(benchmark):
    router = Router(configs.nop_config())
    packet = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(1, 2, PAYLOAD_1500[:1000]))
    accepted, _ = benchmark(router.process, packet)
    assert accepted


def test_micro_vpn_protect_unprotect(benchmark):
    tx = DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
    rx = DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
    counter = {"id": 0}

    def roundtrip():
        counter["id"] += 1
        packet = VpnPacket(OP_DATA, 1, counter["id"])
        tx.protect(packet, PAYLOAD_1500)
        return rx.unprotect(packet)

    result = benchmark(roundtrip)
    assert result == PAYLOAD_1500


def test_micro_ipv4_parse_serialize(benchmark):
    packet = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(1, 2, PAYLOAD_1500))
    wire = packet.serialize()

    def roundtrip():
        return parse_ipv4(wire).serialize()

    assert benchmark(roundtrip) == wire

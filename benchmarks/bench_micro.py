"""Microbenchmarks of the hot primitives (real wall-clock, many rounds).

Unlike the figure/table benches (which measure *simulated* time), these
measure the Python implementation itself — useful for keeping the
functional datapath fast enough that big simulations stay tractable.
"""

import random

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


def _scan_payloads():
    """1,472 B payloads (a 1,500 B packet's) that stay clean of every rule:
    the hex filler the bench workloads carry, HTTP-like text, whose
    common bigrams take the scan below the dense table, and random
    binary."""
    rng = random.Random("micro-scan")
    text = (
        b"GET /static/site/unit/physics.html?session=nice HTTP/1.1\r\n"
        b"Host: www.university.example\r\nAccept-Language: en-US,en;q=0.5\r\n\r\n"
        b"Since the unit assignment, the community of physicists has been\n"
        b"sincerely united in graphics, philosophy and signal analysis.\n"
    )
    return {
        "hex": rng.randbytes(736).hex().encode(),
        "text": (text * 8)[:1472],
        "binary": rng.randbytes(1472),
    }


SCAN_PAYLOADS = _scan_payloads()


@pytest.mark.parametrize("kind", list(SCAN_PAYLOADS))
def test_micro_aho_corasick_scan_1500(benchmark, kind):
    rules = community_ruleset()
    automaton = AhoCorasick([c.pattern for rule in rules for c in rule.contents], case_insensitive=True)
    automaton.scan(b"warmup")
    result = benchmark(automaton.scan, SCAN_PAYLOADS[kind])
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

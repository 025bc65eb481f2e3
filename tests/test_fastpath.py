"""Equivalence tests for the burst data path.

Every burst form — the channel's batch crypto, ``Router.process_batch``,
the gateway's single-crossing ``ecall_batch`` of ``process_packet`` and
the client's burst-draining worker — is asserted to be observably
identical to its scalar counterpart, with one documented exception: a
burst of N packets pays one EENTER/EEXIT transition pair on the gateway
ledger where the scalar path pays N.
"""

import math
import random

import pytest

from repro.click import Router, configs as click_configs
from repro.core.ca import CertificateAuthority
from repro.core.enclave_app import EndBoxEnclave, build_endbox_image
from repro.core.endbox_client import ECALL_BATCH_LIMIT
from repro.core.provisioning import provision_client
from repro.crypto import hmac as crypto_hmac
from repro.crypto.cachestate import HMAC_PAD_CACHE_ENTRIES, current_pads
from repro.faults import trace_digest
from repro.fleet import DeploymentSpec
from repro.costs import default_cost_model
from repro.netsim import IPv4Packet, UdpDatagram, parse_ipv4
from repro.netsim.packet import ENDBOX_PROCESSED_TOS
from repro.netsim.traffic import UdpSink, UdpTrafficSource, make_payload
from repro.sgx import IntelAttestationService, SealedStorage, SgxPlatform
from repro.sgx.gateway import CostLedger, InterfaceViolation
from repro.sim import Simulator
from repro.telemetry.registry import fork_isolated
from repro.tlslib.record import RecordProtection, TYPE_APPLICATION_DATA, parse_records
from repro.vpn import channel as vpn_channel_module
from repro.vpn.channel import ChannelError, DataChannel, ProtectionMode
from repro.vpn.fragment import Fragmenter, Reassembler
from repro.vpn.protocol import OP_DATA, OP_PING, VpnPacket

MODE = ProtectionMode.ENCRYPT_AND_MAC.value


def udp_packet(payload=b"data", sport=40000, dport=5001, tos=0):
    return IPv4Packet(
        src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(sport, dport, payload), tos=tos
    )


def burst(count=8, payload_bytes=64):
    payload = make_payload(payload_bytes)
    return [udp_packet(payload, sport=40000 + i) for i in range(count)]


@pytest.fixture()
def endbox():
    """A provisioned EndBox enclave with the NOP graph loaded."""
    ias = IntelAttestationService()
    ca = CertificateAuthority(ias, seed=b"fastpath-ca")
    image = build_endbox_image(ca.public_key, default_cost_model())
    ca.whitelist_measurement(image.measure())
    platform = SgxPlatform(ias)
    box = EndBoxEnclave.create(image, platform)
    provision_client(box, platform, ca, SealedStorage(platform.platform_id))
    config = click_configs.nop_config()
    box.gateway.ecall("initialize", config, "", sim=Simulator(), payload_bytes=len(config))
    return box


# ----------------------------------------------------------------------
# data-channel batch crypto
# ----------------------------------------------------------------------
def channel_pair():
    return (
        DataChannel(b"cipher-key-cipher", b"hmac-key-hmac-key"),
        DataChannel(b"cipher-key-cipher", b"hmac-key-hmac-key"),
    )


def test_protect_batch_ciphertexts_identical():
    tx_scalar, _ = channel_pair()
    tx_batch, _ = channel_pair()
    payloads = [make_payload(n) for n in (1, 63, 64, 65, 700)]
    scalar_wire = [
        tx_scalar.protect(VpnPacket(OP_DATA, 9, pid), payload).serialize()
        for pid, payload in enumerate(payloads, start=1)
    ]
    items = [(VpnPacket(OP_DATA, 9, pid), p) for pid, p in enumerate(payloads, start=1)]
    batch_wire = [p.serialize() for p in tx_batch.protect_batch(items)]
    assert batch_wire == scalar_wire
    assert tx_batch.protected.value == tx_scalar.protected.value == len(payloads)


def test_protect_batch_rejects_non_data_opcode():
    tx, _ = channel_pair()
    with pytest.raises(ChannelError):
        tx.protect_batch([(VpnPacket(OP_PING, 9, 1), b"x")])


def test_unprotect_batch_isolates_forged_packet():
    tx, rx = channel_pair()
    payloads = [b"first", b"second", b"third"]
    packets = tx.protect_batch(
        [(VpnPacket(OP_DATA, 9, pid), p) for pid, p in enumerate(payloads, start=1)]
    )
    packets[1].body = b"\x00" * len(packets[1].body)  # forge the middle one
    out = rx.unprotect_batch(packets)
    assert out == [b"first", None, b"third"]
    assert rx.rejected.value == 1


def test_batch_receiver_verifies_every_record(monkeypatch):
    """The receiver MAC-checks each record itself, even when the sender
    sealed the burst under the same registry, and a forged tag still
    yields ``None`` in its slot."""
    calls = []
    real_verify = vpn_channel_module.hmac_verify

    def counting_verify(*args):
        calls.append(args)
        return real_verify(*args)

    monkeypatch.setattr(vpn_channel_module, "hmac_verify", counting_verify)
    with fork_isolated():
        tx, rx = channel_pair()
        payloads = [make_payload(n) for n in (1, 64, 700, 1400)]
        items = [(VpnPacket(OP_DATA, 9, pid), p) for pid, p in enumerate(payloads, start=1)]
        assert rx.unprotect_batch(tx.protect_batch(items)) == payloads
        assert len(calls) == len(payloads)

        forged = tx.protect_batch([(VpnPacket(OP_DATA, 9, 10), b"genuine")])
        body = bytearray(forged[0].body)
        body[-1] ^= 0x01  # flip one tag bit
        forged[0].body = bytes(body)
        assert rx.unprotect_batch(forged) == [None]
        assert len(calls) == len(payloads) + 1
        assert rx.rejected.value == 1


# ----------------------------------------------------------------------
# Click dispatch
# ----------------------------------------------------------------------
class RecordingLedger(CostLedger):
    """A ledger that remembers every individual charge, in order."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def add(self, seconds):
        self.charges.append(seconds)
        super().add(seconds)


def test_process_batch_matches_scalar_loop():
    model = default_cost_model()
    loop_ledger = RecordingLedger()
    loop_router = Router(click_configs.firewall_config(), model, loop_ledger)
    batch_ledger = RecordingLedger()
    batch_router = Router(click_configs.firewall_config(), model, batch_ledger)

    packets = burst(10)
    loop_out = [loop_router.process(p) for p in packets]
    batch_out = batch_router.process_batch(packets)
    assert loop_out == batch_out
    assert [c for c in batch_ledger.charges if c != 0.0] == [
        c for c in loop_ledger.charges if c != 0.0
    ]
    assert batch_ledger.total == loop_ledger.total
    assert batch_router.packets_processed == loop_router.packets_processed == len(packets)


# ----------------------------------------------------------------------
# gateway: one crossing per burst
# ----------------------------------------------------------------------
def test_ecall_batch_single_crossing_and_discount(endbox):
    gateway = endbox.gateway
    packets = burst(8)

    gateway.ledger.drain()
    before = gateway.ecalls.value
    scalar_out = [
        gateway.ecall("process_packet", p, "egress", MODE, True, payload_bytes=len(p))
        for p in packets
    ]
    scalar_crossings = gateway.ecalls.value - before
    scalar_cost = gateway.ledger.drain()

    before = gateway.ecalls.value
    batch_out = gateway.ecall_batch(
        "process_packet",
        [(p, "egress", MODE, True) for p in packets],
        payload_bytes=sum(len(p) for p in packets),
    )
    batch_crossings = gateway.ecalls.value - before
    batch_cost = gateway.ledger.drain()

    assert scalar_crossings == len(packets)
    assert batch_crossings == 1
    assert [a for a, _ in scalar_out] == [a for a, _ in batch_out]
    assert [p.serialize() for _, p in scalar_out] == [p.serialize() for _, p in batch_out]
    # the only accounting difference: N-1 saved EENTER/EEXIT pairs
    discount = 2 * gateway.transition_cost * (len(packets) - 1)
    assert math.isclose(scalar_cost - batch_cost, discount, rel_tol=1e-9)


def test_ecall_batch_validates_every_item_before_entering(endbox):
    gateway = endbox.gateway
    good = udp_packet()
    calls = [(good, "egress", MODE, True), (b"not-a-packet", "egress", MODE, True)]
    before = gateway.ecalls.value
    with pytest.raises(InterfaceViolation):
        gateway.ecall_batch("process_packet", calls)
    assert gateway.ecalls.value == before  # the enclave was never entered


# ----------------------------------------------------------------------
# process_packet bursts through ecall_batch
# ----------------------------------------------------------------------
def process_burst(gateway, packets, direction="egress", **kwargs):
    """One ``ecall_batch`` crossing running ``process_packet`` per packet."""
    calls = [(p, direction, MODE, True) for p in packets]
    return gateway.ecall_batch("process_packet", calls, **kwargs)


def test_process_packet_batch_matches_scalar_egress(endbox):
    gateway = endbox.gateway
    packets = burst(8)
    scalar_out = [gateway.ecall("process_packet", p, "egress", MODE, True) for p in packets]
    batch_out = process_burst(gateway, packets)
    assert [a for a, _ in scalar_out] == [a for a, _ in batch_out]
    assert [p.serialize() for _, p in scalar_out] == [p.serialize() for _, p in batch_out]
    assert all(p.tos == ENDBOX_PROCESSED_TOS for _, p in batch_out)


def test_process_packet_batch_firewall_verdicts(endbox):
    config = (
        "f :: FromDevice(); fw :: IPFilter(deny dst port 23, allow all); "
        "t :: ToDevice(); f -> fw -> t;"
    )
    endbox.gateway.ecall("initialize", config, "", sim=Simulator(), payload_bytes=len(config))
    packets = [udp_packet(dport=23), udp_packet(dport=80), udp_packet(dport=23)]
    scalar = [endbox.gateway.ecall("process_packet", p, "egress", MODE, True) for p in packets]
    batched = process_burst(endbox.gateway, packets)
    assert [a for a, _ in batched] == [a for a, _ in scalar] == [False, True, False]


def test_process_packet_batch_ingress_bypass_matches_scalar(endbox):
    gateway = endbox.gateway
    router = endbox.enclave.trusted_state["click"].router
    flagged = [udp_packet(tos=ENDBOX_PROCESSED_TOS) for _ in range(3)]
    unflagged = [udp_packet() for _ in range(2)]
    packets = [flagged[0], unflagged[0], flagged[1], unflagged[1], flagged[2]]

    before = router.packets_processed
    scalar_out = [gateway.ecall("process_packet", p, "ingress", MODE, True) for p in packets]
    scalar_clicked = router.packets_processed - before

    before = router.packets_processed
    batch_out = process_burst(gateway, packets, "ingress")
    batch_clicked = router.packets_processed - before

    assert [a for a, _ in scalar_out] == [a for a, _ in batch_out]
    assert scalar_clicked == batch_clicked == len(unflagged)  # flagged ones bypass Click


def test_process_packet_batch_cost_matches_scalar_modulo_discount(endbox):
    gateway = endbox.gateway
    packets = burst(16, payload_bytes=700)
    gateway.ledger.drain()
    for p in packets:
        gateway.ecall("process_packet", p, "egress", MODE, True, payload_bytes=len(p))
    scalar_cost = gateway.ledger.drain()
    process_burst(gateway, packets, payload_bytes=sum(len(p) for p in packets))
    batch_cost = gateway.ledger.drain()
    discount = 2 * gateway.transition_cost * (len(packets) - 1)
    assert math.isclose(scalar_cost - batch_cost, discount, rel_tol=1e-9)


def test_process_packet_batch_single_item_costs_exactly_scalar(endbox):
    gateway = endbox.gateway
    packet = udp_packet(make_payload(700))
    gateway.ledger.drain()
    gateway.ecall("process_packet", packet, "egress", MODE, True, payload_bytes=len(packet))
    scalar_cost = gateway.ledger.drain()
    process_burst(gateway, [packet], payload_bytes=len(packet))
    batch_cost = gateway.ledger.drain()
    assert scalar_cost == batch_cost


def test_process_packet_batch_validator_rejects(endbox):
    gateway = endbox.gateway
    good = udp_packet()
    before = gateway.ecalls.value
    for bad in (
        (b"junk", "egress", MODE, True),
        (good, "sideways", MODE, True),
        (good, "egress", "rot13", True),
        (good, "egress", MODE, "yes"),
    ):
        with pytest.raises(InterfaceViolation):
            gateway.ecall_batch("process_packet", [(good, "egress", MODE, True), bad])
    assert gateway.ecalls.value == before  # the enclave was never entered


# ----------------------------------------------------------------------
# the batched client
# ----------------------------------------------------------------------
def test_ecall_batching_requires_single_ecall_optimization():
    with pytest.raises(ValueError, match="single-ecall"):
        DeploymentSpec(ecall_batching=True, single_ecall_optimization=False).build()


def test_default_deployment_stays_scalar():
    world = DeploymentSpec().build()
    client = world.clients[0]
    assert client.ecall_batching is False
    assert client.ecall_bursts == 0


def test_batched_client_forms_bursts_and_delivers():
    world = DeploymentSpec(ecall_batching=True, seed="fastpath").build()
    world.connect_all()
    client = world.clients[0]
    sink = UdpSink(world.internal, 5201)
    source = UdpTrafficSource(
        client.host, world.internal.address, 5201, rate_bps=900e6, packet_bytes=1500
    )
    source.start()
    world.sim.run(until=world.sim.now + 0.02)
    source.stop()
    world.sim.run(until=world.sim.now + 0.05)  # drain the backlog

    assert sink.packets > 0
    assert client.ecall_bursts > 0
    per_crossing = client.ecall_burst_packets / client.ecall_bursts
    assert per_crossing > 1.0  # saturating load must actually batch
    assert client.ecall_burst_packets <= client.ecall_bursts * ECALL_BATCH_LIMIT


# ----------------------------------------------------------------------
# zero-copy equivalence (ROADMAP item 4)
# ----------------------------------------------------------------------
def test_zero_copy_channel_equivalence_across_sizes():
    """Scalar, batch and parse-then-unprotect agree for edge-case sizes."""
    rng = random.Random(0xEB10)
    sizes = [0, 1, 16, 31, 32, 33, 1472, 1473, 8900]
    sizes += [rng.randrange(2, 4096) for _ in range(6)]
    payloads = [rng.randbytes(size) for size in sizes]
    tx_scalar, rx_scalar = channel_pair()
    tx_batch, rx_batch = channel_pair()
    wire = []
    for pid, payload in enumerate(payloads, start=1):
        packet = tx_scalar.protect(VpnPacket(OP_DATA, 5, pid), payload)
        wire.append(packet.serialize())
        parsed = VpnPacket.parse(wire[-1])
        # OP_DATA bodies are carved as views over the datagram buffer
        assert type(parsed.body) is memoryview
        assert rx_scalar.unprotect(parsed) == payload
    items = [(VpnPacket(OP_DATA, 5, pid), p) for pid, p in enumerate(payloads, start=1)]
    assert [p.serialize() for p in tx_batch.protect_batch(items)] == wire
    assert rx_batch.unprotect_batch([VpnPacket.parse(w) for w in wire]) == payloads


def test_zero_copy_ip_parse_matches_serialize_across_sizes():
    rng = random.Random(7)
    for size in (0, 1, 8, 1471, 1472, 1473):
        payload = rng.randbytes(size)
        packet = udp_packet(payload)
        wire = packet.serialize()
        parsed = parse_ipv4(wire, verify_checksum=True)
        assert parsed.l4.payload == payload
        assert parsed.serialize() == wire


def test_fragmented_burst_roundtrips_through_reassembler():
    rng = random.Random(0xF0)
    inner = rng.randbytes(25_000)
    frag_id, pieces = Fragmenter(1400).split(inner)
    tx, rx = channel_pair()
    items = [
        (VpnPacket(OP_DATA, 3, index + 1, b"", frag_id, index, len(pieces)), piece)
        for index, piece in enumerate(pieces)
    ]
    protected = tx.protect_batch(items)
    reassembler = Reassembler()
    result = None
    for sealed in protected:
        parsed = VpnPacket.parse(sealed.serialize())
        plain = rx.unprotect(parsed)
        got = reassembler.add(
            parsed.session_id, parsed.frag_id, parsed.frag_index, parsed.frag_count, plain
        )
        if got is not None:
            result = got
    assert result == inner
    assert reassembler.completed == 1


def test_parsed_packet_does_not_alias_reused_wire_buffer():
    """HP705 semantics: parse output must survive receive-buffer reuse."""
    payload = random.Random(1).randbytes(512)
    wire = bytearray(udp_packet(payload).serialize())
    parsed = parse_ipv4(wire)
    snapshot = parsed.serialize()
    wire[:] = b"\xff" * len(wire)  # the NIC ring reuses the buffer
    assert parsed.l4.payload == payload
    assert parsed.serialize() == snapshot


def test_unprotect_plaintext_survives_wire_buffer_reuse():
    tx, rx = channel_pair()
    payload = b"sensitive-inner-packet"
    wire = bytearray(tx.protect(VpnPacket(OP_DATA, 4, 1), payload).serialize())
    parsed = VpnPacket.parse(wire)  # body is a view over ``wire``
    plain = rx.unprotect(parsed)
    wire[:] = b"\x00" * len(wire)  # the datagram buffer is reused
    assert plain == payload


def test_tls_record_zero_copy_framing_and_unprotect():
    key = bytes(range(32))
    tx = RecordProtection(key)
    rx = RecordProtection(key)
    plains = [b"", b"x", random.Random(2).randbytes(1000)]
    buf = b"".join(tx.protect(TYPE_APPLICATION_DATA, p) for p in plains)
    records, tail = parse_records(buf)
    assert tail == b""
    assert [rx.unprotect(r) for r in records] == plains
    # a buffer with no complete record is handed back uncopied
    incomplete = buf[:4]
    records, tail = parse_records(incomplete)
    assert records == []
    assert tail is incomplete


# ----------------------------------------------------------------------
# bounded HMAC pad-state cache (deterministic FIFO eviction)
# ----------------------------------------------------------------------
def test_channel_caches_stay_bounded_under_churn():
    with fork_isolated():
        overflow = 50
        hmac_keys = [b"hmac-key-%08d" % index for index in range(HMAC_PAD_CACHE_ENTRIES + overflow)]
        for pid, hmac_key in enumerate(hmac_keys):
            tx = DataChannel(b"cipher-key-cipher", hmac_key)
            rx = DataChannel(b"cipher-key-cipher", hmac_key)
            packet = tx.protect(VpnPacket(OP_DATA, 2, pid), b"churn-payload")
            assert rx.unprotect(packet) == b"churn-payload"
        cache = current_pads()
        assert len(cache) == HMAC_PAD_CACHE_ENTRIES
        # strictly FIFO: exactly the oldest keys were evicted
        assert all(key not in cache for key in hmac_keys[:overflow])
        assert all(key in cache for key in hmac_keys[overflow:])


def _vpn_digest_run():
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.25, charge_cpu=False
    ).build()
    world.sim.telemetry.recording = True
    world.connect_all()
    sink = UdpSink(world.internal, 6003)
    UdpTrafficSource(
        world.clients[0].host, world.internal.address, 6003, rate_bps=4e5, packet_bytes=400
    ).start()
    world.sim.run(until=world.sim.now + 2.0)
    return trace_digest(world.sim.telemetry), sink.packets


def test_tiny_cache_caps_leave_trace_digest_unchanged(monkeypatch):
    """Eviction policy is invisible: every cached pad state is a pure
    function of its key, so starving the cache must not move a byte."""
    baseline_digest, baseline_packets = _vpn_digest_run()
    monkeypatch.setattr(crypto_hmac, "HMAC_PAD_CACHE_ENTRIES", 1)
    tiny_digest, tiny_packets = _vpn_digest_run()
    assert tiny_packets == baseline_packets > 0
    assert tiny_digest == baseline_digest

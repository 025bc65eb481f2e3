"""A forged DATA datagram must not disturb the tunnel it targets.

The attacker holds no session key, so the datagram's tag is wrong; it
does know the session id and can spoof the peer's outer address.  Both
receivers test the packet id before the MAC check but only record it
after, so the forged id never moves the replay window and the genuine
traffic that follows still gets through.

In EndBox the untrusted host does the fragmenting (Fig 3), so a client
host can also send its gateway authenticated datagrams whose fragment
fields contradict each other, or that claim more fragments than any
packet needs.  Those are rejected like any other bad datagram, before
any storage is set aside for them, and the receiver keeps working.
"""

import tracemalloc

import pytest

from repro.fleet import DeploymentSpec
from repro.netsim.packet import IPv4Packet, UdpDatagram
from repro.netsim.traffic import UdpSink
from repro.vpn import channel
from repro.vpn.channel import DataChannel
from repro.vpn.protocol import OP_DATA, VpnPacket

#: far ahead of the window, and far enough that shifting by it cannot work
FORGED_IDS = [10**9, 2**63]
LEGIT = 5


def _world(ecall_batching):
    world = DeploymentSpec(
        clients=2,
        setup="endbox_sgx",
        use_case="NOP",
        protect_internal=False,  # lets one client machine reach another
        with_config_server=False,
        ecall_batching=ecall_batching,
        seed="forged-data",
    ).build()
    world.connect_all()
    return world


def _forge(forger, src, sport, dst, dport, session_id, packet_id):
    """Send one DATA datagram with a spoofed source and an all-zero body."""
    datagram = VpnPacket(OP_DATA, session_id, packet_id, body=bytes(64)).serialize()
    packet = IPv4Packet(src=src, dst=dst, l4=UdpDatagram(sport, dport, datagram))
    forger.stack.interfaces[0].send(packet.serialize())


def _send_legit(sender, dst, port):
    sock = sender.stack.udp_socket()
    for index in range(LEGIT):
        sock.sendto(b"genuine %d" % index, dst, port)


@pytest.mark.parametrize("ecall_batching", [False, True])
@pytest.mark.parametrize("packet_id", FORGED_IDS)
def test_forged_uplink_datagram_leaves_the_session_working(packet_id, ecall_batching):
    world = _world(ecall_batching)
    victim, forger = world.clients[0], world.client_hosts[1]
    sink = UdpSink(world.internal, 6100)
    rejected = world.server.packets_rejected
    _forge(
        forger,
        victim.host.stack.interfaces[0].address,
        victim.sock.port,
        world.server_host.address,
        world.server.port,
        victim.session_id,
        packet_id,
    )
    world.sim.run(until=world.sim.now + 0.1)
    assert world.server.packets_rejected == rejected + 1  # it arrived, and failed the MAC
    _send_legit(victim.host, world.internal.address, 6100)
    world.sim.run(until=world.sim.now + 0.5)
    assert sink.packets == LEGIT


@pytest.mark.parametrize("ecall_batching", [False, True])
@pytest.mark.parametrize("packet_id", FORGED_IDS)
def test_forged_downlink_datagram_leaves_the_client_working(packet_id, ecall_batching):
    world = _world(ecall_batching)
    victim, forger = world.clients[0], world.client_hosts[1]
    sink = UdpSink(victim.host, 6200)
    rejected = victim.packets_rejected
    # the client reads every datagram that reaches its VPN port
    _forge(
        forger,
        world.server_host.address,
        world.server.port,
        victim.host.stack.interfaces[0].address,
        victim.sock.port,
        victim.session_id,
        packet_id,
    )
    world.sim.run(until=world.sim.now + 0.1)
    assert victim.packets_rejected == rejected + 1
    _send_legit(world.internal, victim.tunnel_ip, 6200)
    world.sim.run(until=world.sim.now + 0.5)
    assert sink.packets == LEGIT


def test_forged_datagram_inside_a_burst_spares_the_rest(monkeypatch):
    """The burst receiver opens each datagram in turn, checking its id
    before the MAC and recording it after: a forged id cannot reject its
    burst-mates, and an in-burst copy of a genuine datagram is refused
    before its MAC is verified."""
    world = _world(ecall_batching=True)
    victim = world.clients[0]
    sink = UdpSink(victim.host, 6300)
    captured = []

    def capture(payload, dst, dport, tos=0):
        packet = VpnPacket.parse(payload)
        if packet.opcode == OP_DATA and packet.session_id == victim.session_id:
            captured.append(packet)
        return True

    # hold the gateway's downlink datagrams back, to hand them over as one burst
    world.server.sock.sendto = capture
    _send_legit(world.internal, victim.tunnel_ip, 6300)
    world.sim.run(until=world.sim.now + 0.1)
    assert len(captured) == LEGIT
    forged = VpnPacket(OP_DATA, victim.session_id, 10**9, body=bytes(64))
    burst = [captured[0], forged] + captured[1:] + [captured[-1]]
    rejected = victim.packets_rejected
    verified = []
    real_verify = channel.hmac_verify

    def counting_verify(*args, **kwargs):
        verified.append(args)
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(channel, "hmac_verify", counting_verify)
    finished = []
    victim._handle_data_run(burst, finished.append)
    world.sim.run(until=world.sim.now + 0.1)
    assert finished == [None]
    assert sink.packets == LEGIT
    assert victim.packets_rejected == rejected + 2  # the forgery and the copy
    assert len(verified) == LEGIT + 1  # the copy cost no MAC verification


#: (frag_id, index, count) of two fragments that disagree on their group's size
MISMATCHED = [(777, 0, 2), (777, 1, 3)]
#: one fragment claiming the largest count the wire can carry
OVERSIZED = [(778, 0, 0xFFFF)]
#: a quarter of what storing a group of that count takes (a pointer a
#: slot): receiving hostile fragments must stay far below it
PEAK_BOUND = 0xFFFF * 8 // 4
#: genuine packets sent after them
AFTER = 3


def _hand_sealed(tx, session_id, src, dst, port, hostile):
    """Authenticated wire datagrams: the ``hostile`` fragments, then AFTER
    single-fragment inner UDP packets to ``dst:port``.

    The ids start far above anything the session has sent, so the
    receiver's replay window accepts them all.
    """
    frames = [(frag_id, index, count, bytes(40)) for frag_id, index, count in hostile]
    for index in range(AFTER):
        inner = IPv4Packet(src=src, dst=dst, l4=UdpDatagram(40000, port, b"after %d" % index))
        frames.append((900 + index, 0, 1, inner.serialize()))
    wires = []
    for packet_id, (frag_id, index, count, body) in enumerate(frames, start=1000):
        packet = VpnPacket(
            OP_DATA, session_id, packet_id, frag_id=frag_id, frag_index=index, frag_count=count
        )
        wires.append(tx.protect(packet, body).serialize())
    return wires


def _traced_peak(run):
    """Run ``run()``; the most memory it held allocated at any one time."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _gateway_receives(setup, hostile, port):
    """Hand-seal ``hostile`` then genuine datagrams from a client to its
    gateway; (gateway rejects, genuine packets delivered, traced peak)."""
    world = DeploymentSpec(
        clients=1, setup=setup, use_case="NOP", with_config_server=False, seed="frag-count"
    ).build()
    world.connect_all()
    client = world.clients[0]
    secrets = client.secrets
    sink = UdpSink(world.internal, port)
    rejected = world.server.packets_rejected
    tx = DataChannel(secrets.client_cipher, secrets.client_hmac, client.mode)
    wires = _hand_sealed(
        tx, client.session_id, client.tunnel_ip, world.internal.address, port, hostile
    )

    def deliver():
        for wire in wires:
            client.sock.sendto(wire, client.server_addr, client.server_port)
        world.sim.run(until=world.sim.now + 0.5)

    peak = _traced_peak(deliver)
    return world.server.packets_rejected - rejected, sink.packets, peak


def _client_receives(setup, ecall_batching, hostile, port):
    """Hand-seal ``hostile`` then genuine datagrams from the gateway to a
    client; (client rejects, genuine packets delivered, traced peak)."""
    world = DeploymentSpec(
        clients=1,
        setup=setup,
        use_case="NOP",
        with_config_server=False,
        ecall_batching=ecall_batching,
        seed="frag-count",
    ).build()
    world.connect_all()
    client = world.clients[0]
    secrets = client.secrets
    sink = UdpSink(client.host, port)
    rejected = client.packets_rejected
    tx = DataChannel(secrets.server_cipher, secrets.server_hmac, client.mode)
    wires = _hand_sealed(
        tx, client.session_id, world.internal.address, client.tunnel_ip, port, hostile
    )

    def deliver():
        if ecall_batching:
            # the datagrams trickle in one by one off the link; hand them
            # over as one run, so they take the burst path
            run = [VpnPacket.parse(wire) for wire in wires]
            client._handle_data_run(run, lambda _arg: None)
        else:
            outer = client.host.stack.interfaces[0].address
            for wire in wires:
                world.server.sock.sendto(wire, outer, client.sock.port)
        world.sim.run(until=world.sim.now + 0.5)

    peak = _traced_peak(deliver)
    return client.packets_rejected - rejected, sink.packets, peak


CLIENT_PATHS = [("vanilla", False), ("endbox_sgx", False), ("endbox_sgx", True)]


@pytest.mark.parametrize("setup", ["vanilla", "endbox_sgx"])
def test_fragment_count_mismatch_leaves_the_gateway_session_working(setup):
    rejected, delivered, peak = _gateway_receives(setup, MISMATCHED, 6400)
    assert rejected == 1  # the second fragment
    assert delivered == AFTER
    assert peak < PEAK_BOUND


@pytest.mark.parametrize("setup, ecall_batching", CLIENT_PATHS)
def test_fragment_count_mismatch_leaves_the_client_working(setup, ecall_batching):
    rejected, delivered, peak = _client_receives(setup, ecall_batching, MISMATCHED, 6500)
    assert rejected == 1
    assert delivered == AFTER
    assert peak < PEAK_BOUND


@pytest.mark.parametrize("setup", ["vanilla", "endbox_sgx"])
def test_oversized_fragment_count_is_refused_unallocated_at_the_gateway(setup):
    """A count no inner packet needs is rejected before its group is
    stored: 8 pieces at most for 65,535 B in 8,900 B fragments."""
    rejected, delivered, peak = _gateway_receives(setup, OVERSIZED, 6600)
    assert rejected == 1
    assert delivered == AFTER
    assert peak < PEAK_BOUND


@pytest.mark.parametrize("setup, ecall_batching", CLIENT_PATHS)
def test_oversized_fragment_count_is_refused_unallocated_at_the_client(setup, ecall_batching):
    rejected, delivered, peak = _client_receives(setup, ecall_batching, OVERSIZED, 6700)
    assert rejected == 1
    assert delivered == AFTER
    assert peak < PEAK_BOUND

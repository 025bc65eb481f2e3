"""A forged DATA datagram must not disturb the tunnel it targets.

The attacker holds no session key, so the datagram's tag is wrong; it
does know the session id and can spoof the peer's outer address.  Both
receivers test the packet id before the MAC check but only record it
after, so the forged id never moves the replay window and the genuine
traffic that follows still gets through.
"""

import pytest

from repro.fleet import DeploymentSpec
from repro.netsim.packet import IPv4Packet, UdpDatagram
from repro.netsim.traffic import UdpSink
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


def test_forged_datagram_inside_a_burst_spares_the_rest():
    """The burst receiver checks ids before the MAC and records them
    after: a forged id cannot reject its burst-mates, and an in-burst
    copy of a genuine datagram is still refused."""
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

    world.sim.process(victim._handle_data_batch(burst))
    world.sim.run(until=world.sim.now + 0.1)
    assert sink.packets == LEGIT
    assert victim.packets_rejected == rejected + 2  # the forgery and the copy

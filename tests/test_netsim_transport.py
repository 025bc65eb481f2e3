"""End-to-end tests across the simulated network: links, UDP, ICMP, TCP, TUN."""

import pytest

from repro.netsim import IPv4Network, IPv4Packet, StarTopology, UdpDatagram
from repro.netsim.host import Host, class_a_host, class_b_host
from repro.netsim.interface import Interface
from repro.netsim.link import ETHERNET_OVERHEAD, Link
from repro.netsim.tcp import TcpError
from repro.sim import Simulator


def _wired(sim, **link_kwargs):
    """A link between two bare interfaces; returns (link, a, b, arrivals at b)."""
    link = Link(sim, **link_kwargs)
    arrived = []
    a = Interface("a")
    b = Interface("b", on_receive=lambda frame, itf: arrived.append((sim.now, frame)))
    link.attach(a)
    link.attach(b)
    return link, a, b, arrived


def test_link_serializes_back_to_back_frames():
    sim = Simulator()
    link, a, b, arrived = _wired(sim, bandwidth_bps=1e6, latency_s=1e-3)
    frames = [bytes([index]) * 100 for index in range(4)]
    start = 0.5
    for frame in frames:
        sim.schedule(start, a.send, frame)
    back = []
    a.set_receiver(lambda frame, itf: back.append(sim.now))
    sim.schedule(start, b.send, b"r" * 100)  # the other direction has its own wire
    sim.run()
    wire = (100 + ETHERNET_OVERHEAD) * 8 / 1e6
    assert [frame for _when, frame in arrived] == frames
    assert [when for when, _frame in arrived] == pytest.approx(
        [start + k * wire + 1e-3 for k in range(1, 5)]
    )
    assert back == pytest.approx([start + wire + 1e-3])
    assert link.frames_sent == 5 and link.bytes_delivered == 500


def test_link_drops_frame_that_finds_the_queue_full():
    sim = Simulator()
    link, a, _b, arrived = _wired(sim, queue_frames=2)
    accepted = []

    def burst():
        # the first frame goes on the wire at once, two wait, the fourth
        # finds queue_frames frames waiting
        accepted.extend(a.send(bytes([index]) * 64) for index in range(4))

    sim.schedule(0.1, burst)
    sim.run()
    assert accepted == [True, True, True, False]
    assert link.frames_dropped == 1
    assert [frame[0] for _when, frame in arrived] == [0, 1, 2]


def test_link_partition_loses_frames_at_transmit_end_without_drawing_loss_rng():
    def pattern(partition):
        sim = Simulator()
        link, a, _b, arrived = _wired(sim, bandwidth_bps=1e6, loss_rate=0.5, name="lossy")
        if partition:
            # up when sent, down when the frame finishes: lost at transmit end
            a.send(b"p" * 100)
            sim.schedule(1e-4, link.set_down, True)
            sim.schedule(1.0, a.send, b"q" * 100)
            sim.schedule(2.0, link.set_down, False)
        for index in range(32):
            sim.schedule(3.0 + index * 1e-3, a.send, bytes([index]) * 100)
        sim.run()
        return link.frames_lost, [frame[0] for when, frame in arrived if when > 3.0]

    lost, delivered = pattern(partition=True)
    unpartitioned_lost, unpartitioned = pattern(partition=False)
    assert lost == unpartitioned_lost + 2
    # the partition drew nothing from the loss stream: after it heals,
    # the same frames are lost as on a link that was never partitioned
    assert delivered == unpartitioned
    assert 0 < len(delivered) < 32


@pytest.fixture()
def lan():
    sim = Simulator()
    topo = StarTopology(sim)
    alice = class_a_host(sim, "alice")
    bob = class_b_host(sim, "bob")
    topo.attach(alice)
    topo.attach(bob)
    return sim, topo, alice, bob


def test_udp_delivery_across_switch(lan):
    sim, _topo, alice, bob = lan
    received = []

    def server():
        sock = bob.stack.udp_socket(5001)
        payload, src, src_port, _pkt = yield sock.recv()
        received.append((payload, str(src), src_port))

    def client():
        sock = alice.stack.udp_socket()
        yield sim.timeout(0.001)
        sock.sendto(b"hello", bob.address, 5001)

    sim.process(server())
    sim.process(client())
    sim.run(until=1.0)
    assert received == [(b"hello", str(alice.address), 49153)]


def test_udp_transfer_time_includes_bandwidth_and_latency(lan):
    sim, topo, alice, bob = lan
    arrival = []

    def server():
        sock = bob.stack.udp_socket(5001)
        yield sock.recv()
        arrival.append(sim.now)

    def client():
        sock = alice.stack.udp_socket()
        sock.sendto(b"x" * 1000, bob.address, 5001)
        yield sim.timeout(0)

    sim.process(server())
    sim.process(client())
    sim.run(until=1.0)
    assert len(arrival) == 1
    # two link hops (host->switch, switch->host): 2 serialisations + 2 latencies
    assert arrival[0] > 2 * topo.latency_s
    assert arrival[0] < 2 * topo.latency_s + 1e-4


def test_ping_rtt_on_lan(lan):
    sim, topo, alice, bob = lan
    rtts = []

    def pinger():
        rtt = yield sim.process(alice.stack.ping(bob.address))
        rtts.append(rtt)

    sim.process(pinger())
    sim.run(until=2.0)
    assert len(rtts) == 1 and rtts[0] is not None
    assert rtts[0] >= 4 * topo.latency_s  # request + reply, 2 hops each
    assert rtts[0] < 1e-3


def test_ping_timeout_when_host_mute(lan):
    sim, _topo, alice, bob = lan
    bob.stack.icmp_echo_enabled = False
    results = []

    def pinger():
        rtt = yield sim.process(alice.stack.ping(bob.address, timeout=0.05))
        results.append(rtt)

    sim.process(pinger())
    sim.run(until=1.0)
    assert results == [None]


def test_tcp_connect_send_receive(lan):
    sim, _topo, alice, bob = lan
    got = []

    def server():
        listener = bob.stack.tcp.listen(8080)
        conn = yield listener.accept()
        data = yield sim.process(conn.read_exactly(11))
        got.append(data)
        conn.send(b"pong")
        yield sim.process(conn.drain())
        conn.close()

    def client():
        conn = yield sim.process(alice.stack.tcp.connect(bob.address, 8080))
        conn.send(b"hello world")
        reply = yield sim.process(conn.read_exactly(4))
        got.append(reply)
        conn.close()

    sim.process(server())
    sim.process(client())
    sim.run(until=5.0)
    assert got == [b"hello world", b"pong"]


def test_tcp_bulk_transfer_integrity(lan):
    sim, _topo, alice, bob = lan
    blob = bytes(range(256)) * 512  # 128 KiB, spans many MSS segments
    received = []

    def server():
        listener = bob.stack.tcp.listen(9000)
        conn = yield listener.accept()
        data = yield sim.process(conn.read_exactly(len(blob)))
        received.append(data)

    def client():
        conn = yield sim.process(alice.stack.tcp.connect(bob.address, 9000))
        conn.send(blob)
        yield sim.process(conn.drain())

    sim.process(server())
    sim.process(client())
    sim.run(until=10.0)
    assert received and received[0] == blob


def test_tcp_connect_refused_raises(lan):
    sim, _topo, alice, bob = lan
    outcome = []

    def client():
        try:
            yield sim.process(alice.stack.tcp.connect(bob.address, 1))
        except TcpError as exc:
            outcome.append("refused")

    sim.process(client())
    sim.run(until=10.0)
    assert outcome == ["refused"]


def test_tcp_read_until_delimiter(lan):
    sim, _topo, alice, bob = lan
    lines = []

    def server():
        listener = bob.stack.tcp.listen(8081)
        conn = yield listener.accept()
        line = yield sim.process(conn.read_until(b"\r\n\r\n"))
        lines.append(line)

    def client():
        conn = yield sim.process(alice.stack.tcp.connect(bob.address, 8081))
        conn.send(b"GET / HTTP/1.1\r\nHost: bob\r\n\r\nBODY")
        yield sim.timeout(0.01)

    sim.process(server())
    sim.process(client())
    sim.run(until=5.0)
    assert lines == [b"GET / HTTP/1.1\r\nHost: bob\r\n\r\n"]


def test_tun_read_write_roundtrip():
    sim = Simulator()
    host = Host(sim, "h")
    tun = host.add_tun("10.8.0.2", IPv4Network("10.8.0.0/24"))
    seen = []
    tun.on_read(lambda packet: seen.append(str(packet.dst)))
    # a packet routed into 10.8.0.0/24 reaches the tun device's reader
    host.stack.send_packet(IPv4Packet(src="10.8.0.2", dst="10.8.0.99", l4=b"data"))
    assert seen == ["10.8.0.99"]
    # a packet written to the device enters the stack as if received
    sock = host.stack.udp_socket(5000, address="10.8.0.2")
    got = []
    sock.on_receive(lambda payload, src, src_port, packet: got.append((payload, src_port)))
    tun.write(IPv4Packet(src="10.8.0.99", dst="10.8.0.2", l4=UdpDatagram(7, 5000, b"back")))
    assert got == [(b"back", 7)]


def test_tun_without_reader_drops_and_counts():
    sim = Simulator()
    host = Host(sim, "h")
    tun = host.add_tun("10.8.0.2", IPv4Network("10.8.0.0/24"))
    host.stack.send_packet(IPv4Packet(src="10.8.0.2", dst="10.8.0.99", l4=b"data"))
    assert tun.packets_dropped == 1


def test_forwarding_host_routes_between_subnets():
    sim = Simulator()
    topo = StarTopology(sim)
    client = class_a_host(sim, "client")
    gateway = class_a_host(sim, "gw", forwarding=True)
    server = class_b_host(sim, "server")
    topo.attach(client)
    topo.attach(gateway)
    topo.attach(server)
    # pretend 10.99.0.0/24 lives behind the gateway
    gw_tun = gateway.add_tun("10.99.0.1", IPv4Network("10.99.0.0/24"))
    topo.route_subnet("10.99.0.0/24", gateway)
    arrived = []
    gw_tun.on_read(lambda packet: arrived.append((str(packet.src), str(packet.dst), packet.ttl)))

    def sender():
        yield sim.timeout(0.001)
        client.stack.send_packet(
            IPv4Packet(src=client.address, dst="10.99.0.50", l4=UdpDatagram(1, 2, b"z"))
        )

    sim.process(sender())
    sim.run(until=1.0)
    assert arrived and arrived[0][1] == "10.99.0.50"
    assert arrived[0][2] == 63  # TTL decremented by the forwarding hop


def test_wan_latency_dominates_rtt():
    sim = Simulator()
    topo = StarTopology(sim)
    local = class_a_host(sim, "local")
    cloud = class_a_host(sim, "cloud")
    topo.attach(local)
    topo.attach_wan(cloud, one_way_latency_s=0.045)
    rtts = []

    def pinger():
        rtt = yield sim.process(local.stack.ping(cloud.address, timeout=2.0))
        rtts.append(rtt)

    sim.process(pinger())
    sim.run(until=5.0)
    assert rtts[0] == pytest.approx(2 * (0.045 + topo.latency_s), rel=0.05)

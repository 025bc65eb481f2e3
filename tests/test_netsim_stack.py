"""NetworkStack unit tests: routing, hooks, ACLs, preferred source."""

import pytest

from repro.netsim import IPv4Network, IPv4Packet, StarTopology, UdpDatagram
from repro.netsim.host import Host, class_a_host
from repro.netsim.packet import ENDBOX_PROCESSED_TOS
from repro.netsim.stack import StackError
from repro.sim import Simulator


def test_longest_prefix_route_wins():
    sim = Simulator()
    host = Host(sim, "h")
    wide = host.add_tun("10.0.0.1", IPv4Network("10.0.0.0/8"), name="wide")
    narrow = host.add_tun("10.1.0.1", IPv4Network("10.1.0.0/16"), name="narrow")
    assert host.stack.route_for(IPv4Packet(src="1.1.1.1", dst="10.1.2.3", l4=b"").dst) is narrow
    assert host.stack.route_for(IPv4Packet(src="1.1.1.1", dst="10.2.2.3", l4=b"").dst) is wide


def test_equal_prefix_later_route_wins():
    sim = Simulator()
    host = Host(sim, "h")
    host.add_tun("10.0.0.1", IPv4Network("10.0.0.0/16"), name="first")
    second = host.add_tun("10.0.0.2", None, name="second")
    host.stack.add_route("10.0.0.0/16", second)
    assert host.stack.route_for(IPv4Packet(src="1.1.1.1", dst="10.0.9.9", l4=b"").dst) is second


def test_preferred_source_overrides_primary():
    sim = Simulator()
    host = Host(sim, "h")
    host.add_tun("10.0.0.1", IPv4Network("10.0.0.0/16"))
    tun2 = host.add_tun("10.8.0.5", IPv4Network("10.8.0.0/24"))
    assert str(host.stack.primary_address()) == "10.0.0.1"
    host.stack.set_preferred_source(tun2.address)
    assert str(host.stack.primary_address()) == "10.8.0.5"
    host.stack.set_preferred_source(None)
    assert str(host.stack.primary_address()) == "10.0.0.1"


def test_primary_address_requires_interface():
    sim = Simulator()
    host = Host(sim, "h")
    with pytest.raises(StackError):
        host.stack.primary_address()


def test_duplicate_udp_bind_rejected():
    sim = Simulator()
    host = Host(sim, "h")
    host.add_tun("10.0.0.1", IPv4Network("10.0.0.0/16"))
    host.stack.udp_socket(1000)
    with pytest.raises(StackError):
        host.stack.udp_socket(1000)
    # but closing frees the port
    sock = host.stack.udp_socket(1001)
    sock.close()
    host.stack.udp_socket(1001)


def test_loopback_delivery():
    sim = Simulator()
    host = Host(sim, "h")
    host.add_tun("10.0.0.1", IPv4Network("10.0.0.0/16"))
    got = []

    def app():
        sock = host.stack.udp_socket(2000)
        host.stack.send_packet(
            IPv4Packet(src="10.0.0.1", dst="10.0.0.1", l4=UdpDatagram(1, 2000, b"self"))
        )
        payload, *_ = yield sock.recv()
        got.append(payload)

    sim.process(app())
    sim.run(until=1.0)
    assert got == [b"self"]


def test_egress_hook_can_drop_and_rewrite():
    sim = Simulator()
    host = Host(sim, "h")
    tun = host.add_tun("10.0.0.1", IPv4Network("10.0.0.0/16"))
    read = []
    tun.on_read(read.append)

    def hook(packet):
        if packet.dst == IPv4Packet(src="1.1.1.1", dst="10.0.0.66", l4=b"").dst:
            return None
        return packet.copy(tos=7)

    host.stack.egress_hooks.append(hook)
    assert not host.stack.send_packet(IPv4Packet(src="10.0.0.1", dst="10.0.0.66", l4=b""))
    assert host.stack.send_packet(IPv4Packet(src="10.0.0.1", dst="10.0.0.99", l4=b""))
    assert len(read) == 1 and read[0].tos == 7


def test_forward_hook_only_applies_to_transit():
    sim = Simulator()
    gateway = Host(sim, "gw", forwarding=True)
    gateway.add_tun("10.0.0.1", IPv4Network("10.0.0.0/16"))
    out = gateway.add_tun("10.9.0.1", IPv4Network("10.9.0.0/24"))
    routed_out = []
    out.on_read(routed_out.append)
    seen = []

    def hook(packet, ingress):
        seen.append(str(packet.dst))
        return packet

    gateway.stack.forward_hooks.append(hook)
    # local delivery: hook must NOT run
    gateway.stack.inject(IPv4Packet(src="10.0.0.2", dst="10.0.0.1", l4=b""))
    assert seen == []
    # transit: hook runs
    gateway.stack.inject(IPv4Packet(src="10.0.0.2", dst="10.9.0.9", l4=b""))
    assert seen == ["10.9.0.9"]
    assert len(routed_out) == 1


def test_switch_acl_vetoes_forwarding():
    sim = Simulator()
    topo = StarTopology(sim)
    a = class_a_host(sim, "a")
    b = class_a_host(sim, "b")
    addr_a = topo.attach(a)
    topo.attach(b)
    port_a = topo.switch._host_routes[addr_a]
    topo.switch.acls.append(lambda frame, ingress, egress: ingress is not port_a)
    got = []

    def server():
        sock = b.stack.udp_socket(3000)
        payload, *_ = yield sock.recv()
        got.append(payload)

    sim.process(server())
    sock = a.stack.udp_socket()
    sock.sendto(b"x", b.address, 3000)
    sim.run(until=0.5)
    assert got == []
    assert topo.switch.packets_denied == 1


def test_endbox_flag_constant_matches_paper():
    assert ENDBOX_PROCESSED_TOS == 0xEB

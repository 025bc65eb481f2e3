"""Integration tests of the full EndBox deployment (scenarios)."""

import functools

import pytest

from repro.click import configs as click_configs
from repro.fleet import DeploymentSpec
from repro.ids.community_rules import ruleset_text
from repro.netsim.packet import ENDBOX_PROCESSED_TOS
from repro.netsim.traffic import UdpSink, UdpTrafficSource


@pytest.fixture(scope="module")
def connected_world():
    """One EndBox SGX client, NOP config, fully connected (module-scoped:
    deployments are expensive to provision)."""
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP").build()
    world.connect_all()
    return world


def test_endbox_client_connects_with_attested_cert(connected_world):
    world = connected_world
    client = world.clients[0]
    assert client.tunnel_ip is not None
    session = next(iter(world.server.sessions_by_peer.values()))
    assert session.certificate.subject.startswith("endbox:")


def test_traffic_flows_and_click_processes(connected_world):
    world = connected_world
    client = world.clients[0]
    sink = UdpSink(world.internal, 5201)
    source = UdpTrafficSource(client.host, world.internal.address, 5201, rate_bps=2e6, packet_bytes=500)
    source.start()
    world.sim.run(until=world.sim.now + 0.2)
    source.stop()
    world.sim.run(until=world.sim.now + 0.2)
    assert sink.packets > 10
    assert client.endbox.gateway.ecalls > 10  # one ecall per packet


def test_bypass_attempt_blocked_by_static_firewall(connected_world):
    world = connected_world
    client = world.clients[0]
    sink = UdpSink(world.internal, 5305)
    # malicious app sends directly from the physical address, skipping the tun
    from repro.netsim.packet import IPv4Packet, UdpDatagram

    nic_addr = client.host.stack.interfaces[0].address
    direct = IPv4Packet(src=nic_addr, dst=world.internal.address, l4=UdpDatagram(1234, 5305, b"bypass"))
    nic = client.host.stack.interfaces[0]
    nic.send(direct.serialize())
    world.sim.run(until=world.sim.now + 0.1)
    assert sink.packets == 0  # the VPN-only firewall dropped it


def test_firewall_use_case_blocks_in_enclave():
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="FW").build()
    world.connect_all()
    client = world.clients[0]
    sink_allowed = UdpSink(world.internal, 8080)
    sink_blocked = UdpSink(world.internal, 23)
    src_allowed = UdpTrafficSource(client.host, world.internal.address, 8080, rate_bps=1e6, packet_bytes=300)
    src_blocked = UdpTrafficSource(client.host, world.internal.address, 23, rate_bps=1e6, packet_bytes=300)
    src_allowed.start()
    src_blocked.start()
    world.sim.run(until=world.sim.now + 0.2)
    assert sink_allowed.packets > 0
    assert sink_blocked.packets == 0
    assert client.packets_dropped_by_click > 0


def test_idps_use_case_drops_matching_traffic():
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="IDPS").build()
    world.connect_all()
    client = world.clients[0]
    sink = UdpSink(world.internal, 5001)
    clean = UdpTrafficSource(client.host, world.internal.address, 5001, rate_bps=1e6, packet_bytes=300)
    clean.start()
    world.sim.run(until=world.sim.now + 0.1)
    clean_packets = sink.packets
    assert clean_packets > 0
    # now send an attack payload matching a community rule via TCP port 80

    def attack():
        from repro.netsim.packet import IPv4Packet, TcpSegment

        packet = IPv4Packet(
            src=client.tunnel_ip,
            dst=world.internal.address,
            l4=TcpSegment(40000, 80, payload=b"GET /etc/passwd HTTP/1.1"),
        )
        client.host.stack.send_packet(packet)
        yield world.sim.timeout(0)

    world.sim.process(attack())
    world.sim.run(until=world.sim.now + 0.1)
    assert client.packets_dropped_by_click >= 1


@functools.lru_cache(maxsize=None)
def _drops_during_hot_swap(ecall_batching):
    """Client CPU time spent on each of four phases of packets dropped
    mid-swap: one and three uplink, then one and three downlink.

    Asserts along the way that each dropped packet is counted once.
    """
    world = DeploymentSpec(
        clients=1,
        setup="endbox_sgx",
        use_case="NOP",
        with_config_server=False,
        ecall_batching=ecall_batching,
        seed="swap-drops",
    ).build()
    world.connect_all()
    client = world.clients[0]
    cpu = client.host.cpu
    uplink = UdpSink(world.internal, 5600)
    downlink = UdpSink(client.host, 5601)
    client._swap_until = world.sim.now + 1.0  # the Click graph is mid-swap for 1 s
    to_internal = client.host.stack.udp_socket()
    to_client = world.internal.stack.udp_socket()
    expected = 0
    busy = []
    for send in (
        lambda: to_internal.sendto(b"up", world.internal.address, 5600),
        lambda: to_client.sendto(b"down", client.tunnel_ip, 5601),
    ):
        for burst in (1, 3):
            before = cpu.busy_time
            for _ in range(burst):
                send()
            world.sim.run(until=world.sim.now + 0.05)
            busy.append(cpu.busy_time - before)
            expected += burst
            assert client.packets_dropped_by_click == expected
    assert world.sim.now < client._swap_until
    assert uplink.packets == downlink.packets == 0
    return tuple(busy)


@pytest.mark.parametrize("ecall_batching", [False, True])
def test_packet_dropped_during_hot_swap_is_counted_once(ecall_batching):
    """Each packet dropped mid-swap is counted once, and a burst pays
    the scalar path's price for every packet it drops."""
    busy = _drops_during_hot_swap(ecall_batching)
    assert busy == pytest.approx(_drops_during_hot_swap(False))


@pytest.mark.parametrize("ecall_batching", [False, True])
def test_worker_fails_closed_on_destroyed_enclave(ecall_batching):
    """With its enclave destroyed, the client drops and counts every
    packet, up- and downlink, and its worker keeps serving (a dying
    worker would fail the run)."""
    world = DeploymentSpec(
        clients=1,
        setup="endbox_sgx",
        use_case="NOP",
        with_config_server=False,
        ecall_batching=ecall_batching,
        seed="destroyed",
    ).build()
    world.connect_all()
    client = world.clients[0]
    uplink = UdpSink(world.internal, 5700)
    downlink = UdpSink(client.host, 5701)
    to_internal = client.host.stack.udp_socket()
    to_client = world.internal.stack.udp_socket()
    client.endbox.enclave.destroy()
    expected = 0
    for send in (
        lambda: to_internal.sendto(b"up", world.internal.address, 5700),
        lambda: to_client.sendto(b"down", client.tunnel_ip, 5701),
    ):
        for burst in (1, 3):
            for _ in range(burst):
                send()
            world.sim.run(until=world.sim.now + 0.05)
            expected += burst
            assert client.packets_dropped_enclave_error == expected
    assert uplink.packets == downlink.packets == 0
    assert client.packets_dropped_by_click == 0


def test_client_to_client_flagging_skips_second_click():
    world = DeploymentSpec(clients=2, setup="endbox_sgx", use_case="IDPS").build()
    world.connect_all()
    a, b = world.clients
    received = []

    def receiver():
        sock = b.host.stack.udp_socket(9100, address=b.tunnel_ip)
        payload, _src, _port, packet = yield sock.recv()
        received.append(packet)

    def sender():
        sock = a.host.stack.udp_socket()
        sock.sendto(b"peer to peer", b.tunnel_ip, 9100)
        yield world.sim.timeout(0)

    b_clicks_before = int(b.click_handler("ids", "matched"))
    b_router = b.endbox.enclave.trusted_state["click"].router
    processed_before = b_router.packets_processed
    world.sim.process(receiver())
    world.sim.process(sender())
    world.sim.run(until=world.sim.now + 0.5)
    assert received, "c2c packet not delivered"
    # the packet still carries the flag and B's Click never saw it
    assert received[0].tos == ENDBOX_PROCESSED_TOS
    assert b_router.packets_processed == processed_before


def test_outside_attacker_cannot_forge_the_flag():
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP", protect_internal=False).build()
    world.connect_all()
    client = world.clients[0]
    # an internal host (outside the tunnel) sends a flagged packet toward
    # the client; the EndBox server must strip the flag when forwarding
    received = []

    def receiver():
        sock = client.host.stack.udp_socket(9200, address=client.tunnel_ip)
        _payload, _src, _port, packet = yield sock.recv()
        received.append(packet)

    def attacker():
        sock = world.internal.stack.udp_socket()
        sock.sendto(b"evil", client.tunnel_ip, 9200, tos=ENDBOX_PROCESSED_TOS)
        yield world.sim.timeout(0)

    world.sim.process(receiver())
    world.sim.process(attacker())
    world.sim.run(until=world.sim.now + 0.5)
    assert received
    assert received[0].tos != ENDBOX_PROCESSED_TOS
    assert world.server.flags_stripped >= 1


def test_config_update_full_loop():
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.2).build()
    world.connect_all()
    client = world.clients[0]
    # Fig 5 steps 1-2: publish a firewall config as version 2
    bundle = world.publisher.build_bundle(
        2,
        "f :: FromDevice(); fw :: IPFilter(deny dst port 23, allow all); t :: ToDevice(); f -> fw -> t;",
        encrypt=True,
    )
    world.publisher.publish(bundle, world.config_server, world.server, grace_period_s=5.0)
    world.sim.run(until=world.sim.now + 3.0)
    # steps 5-9 happened: client fetched, applied, confirmed
    assert client.config_version == 2
    assert client.update_timings and client.update_timings[0].version == 2
    session = next(iter(world.server.sessions_by_peer.values()))
    assert session.client_version == 2
    # the new configuration is live in the enclave
    accepted, _ = client.endbox.gateway.ecall(
        "process_packet",
        __import__("repro.netsim.packet", fromlist=["IPv4Packet"]).IPv4Packet(
            src=client.tunnel_ip, dst=world.internal.address,
            l4=__import__("repro.netsim.packet", fromlist=["UdpDatagram"]).UdpDatagram(1, 23, b"x"),
        ),
        "egress",
        "encrypt+mac",
        True,
    )
    assert not accepted


def test_stale_client_blocked_after_grace_and_reconnect_gated():
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP", with_config_server=False, ping_interval=0.5).build()
    world.connect_all()
    client = world.clients[0]
    # no config server: the client cannot update; version 2 announced
    world.server.announce_config(2, grace_period_s=0.5)
    sink = UdpSink(world.internal, 5400)
    source = UdpTrafficSource(client.host, world.internal.address, 5400, rate_bps=1e6, packet_bytes=300)
    source.start()
    world.sim.run(until=world.sim.now + 0.3)
    in_grace = sink.packets
    world.sim.run(until=world.sim.now + 2.0)
    source.stop()
    after_grace_start = sink.packets
    world.sim.run(until=world.sim.now + 1.0)
    assert in_grace > 0
    # traffic stopped flowing once the grace period expired
    assert sink.packets == after_grace_start
    session = next(iter(world.server.sessions_by_peer.values()))
    assert session.packets_dropped_policy > 0
    # and a reconnect with the stale version is refused outright
    assert not world.server.admit_session(session.certificate, client_version=1)


def test_back_to_back_rollouts_do_not_revive_expired_clients():
    """Regression: announcing v3 while v2's grace ran used to overwrite
    the single ``grace_deadline``, so a client already expired under v2
    regained admission for the whole of v3's grace window."""
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", with_config_server=False, ping_interval=0.5
    ).build()
    world.connect_all()
    client = world.clients[0]
    world.server.announce_config(2, grace_period_s=0.5)
    world.sim.run(until=world.sim.now + 1.0)  # v2 grace expires; client is stuck on v1
    world.server.announce_config(3, grace_period_s=10.0)
    sink = UdpSink(world.internal, 5450)
    source = UdpTrafficSource(client.host, world.internal.address, 5450, rate_bps=1e6, packet_bytes=300)
    source.start()
    world.sim.run(until=world.sim.now + 1.0)
    source.stop()
    # the v1 client stays locked out: v2's expired deadline still binds it
    assert sink.packets == 0
    assert world.server.stale_admitted_after_grace == 0
    session = next(iter(world.server.sessions_by_peer.values()))
    assert not world.server.admit_session(session.certificate, client_version=1)
    # a client that had reached v2 would still be inside v3's grace
    deadline_v2 = world.server.grace_deadline_for(2)
    assert deadline_v2 is not None and world.sim.now < deadline_v2


def test_vanilla_client_cannot_join_endbox_deployment():
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="NOP").build()
    from repro.crypto.drbg import HmacDrbg
    from repro.crypto.x25519 import X25519PrivateKey
    from repro.netsim.host import class_a_host
    from repro.vpn.openvpn import OpenVpnClient

    host = class_a_host(world.sim, "interloper")
    world.topo.attach(host)
    key = X25519PrivateKey(HmacDrbg(b"ik").generate(32))
    cert = world.ca.issue_server_certificate("interloper", key.public_bytes)  # not attested
    rogue = OpenVpnClient(
        host, world.server_host.address, key, cert, world.ca.public_key, server_name="vpn-server"
    )
    rogue.start()
    world.connect_all()
    world.sim.run(until=world.sim.now + 3.0)
    assert rogue.connected_event.triggered
    assert rogue.connected_event.exception is not None
    assert world.server.admissions_denied >= 1


def test_isp_scenario_mac_only_mode():
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", scenario="isp", isp_no_encryption=True
    ).build()
    world.connect_all()
    client = world.clients[0]
    sink = UdpSink(world.internal, 5500)
    source = UdpTrafficSource(client.host, world.internal.address, 5500, rate_bps=1e6, packet_bytes=300)
    source.start()
    world.sim.run(until=world.sim.now + 0.2)
    assert sink.packets > 0
    from repro.vpn.channel import ProtectionMode

    assert client.mode is ProtectionMode.MAC_ONLY


def test_openvpn_click_setup_processes_server_side():
    world = DeploymentSpec(clients=1, setup="openvpn_click", use_case="FW").build()
    world.connect_all()
    client = world.clients[0]
    sink_ok = UdpSink(world.internal, 8080)
    sink_blocked = UdpSink(world.internal, 23)
    UdpTrafficSource(client.host, world.internal.address, 8080, rate_bps=1e6, packet_bytes=300).start()
    UdpTrafficSource(client.host, world.internal.address, 23, rate_bps=1e6, packet_bytes=300).start()
    world.sim.run(until=world.sim.now + 0.2)
    assert sink_ok.packets > 0
    assert sink_blocked.packets == 0  # dropped by the server-side Click

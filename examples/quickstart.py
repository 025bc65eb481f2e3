#!/usr/bin/env python3
"""Quickstart: a minimal EndBox deployment in ~40 lines.

Builds one SGX-attested EndBox client connected to a managed network,
pushes traffic through the in-enclave firewall, and shows the
enforcement: allowed traffic flows, blocked ports are dropped *on the
client*, and traffic that tries to sneak around the tunnel never
reaches the internal host.

Run:  python examples/quickstart.py
"""

from repro.fleet import DeploymentSpec
from repro.netsim.traffic import UdpSink, UdpTrafficSource


def main() -> None:
    # one EndBox client, firewall use case (16 IPFilter rules, §V-B)
    world = DeploymentSpec(clients=1, setup="endbox_sgx", use_case="FW").build()
    world.connect_all()
    client = world.clients[0]
    print(f"client connected; tunnel address {client.tunnel_ip}")
    print(f"enclave measurement: {client.endbox.enclave.mrenclave.hex()[:16]}...")
    print(f"certificate subject: {client.certificate.subject}")

    web = UdpSink(world.internal, 8080)  # allowed port
    telnet = UdpSink(world.internal, 23)  # blocked by the FW config
    UdpTrafficSource(client.host, world.internal.address, 8080, rate_bps=4e6, packet_bytes=512).start()
    UdpTrafficSource(client.host, world.internal.address, 23, rate_bps=4e6, packet_bytes=512).start()

    world.sim.run(until=world.sim.now + 0.5)

    print(f"\nport 8080 (allowed): {web.packets} packets delivered")
    print(f"port   23 (denied) : {telnet.packets} packets delivered")
    print(f"dropped by in-enclave Click: {client.packets_dropped_by_click}")
    print(f"enclave ecalls (one per packet): {client.endbox.gateway.ecalls}")
    assert web.packets > 0 and telnet.packets == 0
    print("\nEndBox enforced the firewall on the client - no server CPU spent on it.")


if __name__ == "__main__":
    main()

"""Topology builders for the evaluation testbed.

:class:`StarTopology` reproduces the paper's setup: every machine hangs
off one 10 Gbps switch with MTU 9000 links.  WAN attachments (the AWS
EC2 middleboxes of Fig 7) are modelled as extra hosts behind
high-latency links on the same switch.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.switch import Switch
from repro.sim import Simulator

LAN_BANDWIDTH = 10e9
LAN_LATENCY = 20e-6  # one-way NIC-to-switch; a LAN RTT lands around 0.1 ms


class StarTopology:
    """All hosts attached to one switch; addressing from a /16."""

    def __init__(
        self,
        sim: Simulator,
        network: str = "10.0.0.0/16",
        bandwidth_bps: float = LAN_BANDWIDTH,
        latency_s: float = LAN_LATENCY,
        mtu: int = 9000,
    ) -> None:
        self.sim = sim
        self.network = IPv4Network(network)
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.mtu = mtu
        self.switch = Switch(sim)
        self.hosts: Dict[str, Host] = {}
        self._next_host_index = 1

    def allocate_address(self) -> IPv4Address:
        """Reserve the next host address."""
        address = self.network.host(self._next_host_index)
        self._next_host_index += 1
        return address

    def attach(
        self,
        host: Host,
        address: Optional[IPv4Address] = None,
        latency_s: Optional[float] = None,
        bandwidth_bps: Optional[float] = None,
    ) -> IPv4Address:
        """Attach ``host`` to the switch; returns its address."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        address = IPv4Address(address) if address is not None else self.allocate_address()
        link = Link(
            self.sim,
            bandwidth_bps=bandwidth_bps or self.bandwidth_bps,
            latency_s=latency_s if latency_s is not None else self.latency_s,
            mtu=self.mtu,
            name=f"link:{host.name}",
        )
        nic = host.add_nic(address, self.network, link)
        host.stack.add_route("0.0.0.0/0", nic)  # default gateway via the LAN
        port = self.switch.new_port(link)
        self.switch.add_host_route(address, port)
        self.hosts[host.name] = host
        return address

    def attach_wan(self, host: Host, one_way_latency_s: float, address: Optional[IPv4Address] = None) -> IPv4Address:
        """Attach a remote (cloud) host behind a high-latency link."""
        return self.attach(host, address=address, latency_s=one_way_latency_s)

    def route_subnet(self, network: str, via_host: Host) -> None:
        """Send a whole subnet (e.g. the VPN tunnel range) to one host."""
        subnet = IPv4Network(network)
        nic = next(itf for itf in via_host.stack.interfaces if itf.address is not None)
        port = self.switch._host_routes[nic.address]
        self.switch.add_prefix_route(subnet, port)
        # other hosts need a return route through the same switch fabric
        for host in self.hosts.values():
            if host is not via_host:
                first_nic = host.stack.interfaces[0]
                host.stack.add_route(subnet, first_nic)

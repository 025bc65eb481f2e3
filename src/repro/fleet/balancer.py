"""Client→gateway balancers: consistent hashing and RoundRobinSwitch.

Two policies assign clients (keyed by their stable string identity, e.g.
``"client-42"``) to gateway indices:

* :class:`HashRing` — consistent hashing over SHA-256 ring points with
  virtual nodes.  Adding a gateway only remaps the keys that fall into
  the new gateway's arcs (~``K/N`` of them), which is what makes
  fleet growth cheap: a remapped client migrates, everyone else keeps
  their session.
* :class:`RoundRobinBalancer` — the alternative the paper's LB use case
  already ships as a Click element: a real
  :class:`~repro.click.elements.roundrobin.RoundRobinSwitch` in FLOWS
  mode is wired to one collector per gateway and every lookup pushes a
  synthetic packet through it, so assignment semantics (rotation for
  new keys, flow-table stickiness for known ones) are the element's
  own, not a reimplementation.

Both are deterministic: no randomness, no wall clock, and SHA-256 ring
points are fixed for all time.  Every lookup counts into
``fleet.balancer.picks`` on the current telemetry registry.

:meth:`Balancer.moves` is the placement rule both fleets (the
packet-level ``FleetDeployment`` and the swarm) migrate by.
"""

from __future__ import annotations

import bisect
from typing import Collection, List, Sequence, Tuple

from repro.click.element import Element, Packet
from repro.click.elements.roundrobin import RoundRobinSwitch
from repro.crypto.hashes import sha256
from repro.netsim.addresses import IPv4Address
from repro.netsim.packet import IPv4Packet
from repro.telemetry.registry import Registry

PICKS_NAME = "fleet.balancer.picks"

#: virtual nodes per gateway; enough that arcs are well mixed and the
#: ≤ ceil(K/N) growth-remap property holds for realistic fleet sizes.
DEFAULT_VNODES = 96


class BalancerError(ValueError):
    """Invalid balancer construction or lookup."""


def _point(label: str) -> int:
    """Deterministic ring point for a label (first 8 SHA-256 bytes)."""
    return int.from_bytes(sha256(label.encode())[:8], "big")


class Balancer:
    """Common surface: ``pick`` a home gateway, ``fallback`` around
    outages, ``moves`` by the placement rule."""

    def __init__(self, n_gateways: int) -> None:
        if n_gateways < 1:
            raise BalancerError(f"a balancer needs at least one gateway, got {n_gateways}")
        self.n_gateways = n_gateways
        self._tm_picks = Registry.current().counter(PICKS_NAME)

    def pick(self, key: str) -> int:
        """Home gateway index for ``key`` (stable across calls)."""
        raise NotImplementedError

    def fallback(self, key: str, down: Collection[int]) -> int:
        """Gateway for ``key`` while the gateways in ``down`` are out.

        The default policy walks forward from the home gateway modulo
        the fleet; subclasses with topology (the hash ring) override it.
        """
        down = frozenset(down)
        if len(down) >= self.n_gateways:
            raise BalancerError("every gateway is down; no fallback target")
        home = self.pick(key)
        for offset in range(self.n_gateways):
            candidate = (home + offset) % self.n_gateways
            if candidate not in down:
                return candidate
        raise BalancerError("unreachable: some gateway must be up")  # pragma: no cover

    def moves(
        self, homes: Sequence[int], current: Sequence[int], down: Collection[int]
    ) -> List[Tuple[int, int]]:
        """``(client, gateway)`` for each client that must move, in order.

        Client ``i`` (``"client-<i>"``) belongs on ``homes[i]`` when that
        gateway is up, else on ``fallback(key, down)``; it moves when
        that differs from ``current[i]``.  While every gateway is down,
        no client moves.
        """
        down = frozenset(down)
        if len(down) >= self.n_gateways:
            return []
        pairs = []
        for client, home in enumerate(homes):
            place = home if home not in down else self.fallback(f"client-{client}", down)
            if place != current[client]:
                pairs.append((client, place))
        return pairs


class HashRing(Balancer):
    """Consistent-hash ring over gateway indices with virtual nodes."""

    def __init__(self, n_gateways: int, vnodes: int = DEFAULT_VNODES) -> None:
        super().__init__(n_gateways)
        if vnodes < 1:
            raise BalancerError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for gateway in range(n_gateways):
            for replica in range(vnodes):
                points.append((_point(f"gateway-{gateway}:{replica}"), gateway))
        points.sort()
        self._points = [p for p, _g in points]
        self._owners = [g for _p, g in points]

    def _owner_at(self, index: int) -> int:
        return self._owners[index % len(self._owners)]

    def pick(self, key: str) -> int:
        """First ring point at or after ``hash(key)`` owns the key."""
        self._tm_picks.inc()
        index = bisect.bisect_left(self._points, _point(key))
        return self._owner_at(index)

    def fallback(self, key: str, down: Collection[int]) -> int:
        """Walk the ring past vnodes of down gateways (consistent-hash failover)."""
        down = frozenset(down)
        if len(down) >= self.n_gateways:
            raise BalancerError("every gateway is down; no fallback target")
        self._tm_picks.inc()
        index = bisect.bisect_left(self._points, _point(key))
        for step in range(len(self._owners)):
            owner = self._owner_at(index + step)
            if owner not in down:
                return owner
        raise BalancerError("unreachable: some gateway must be up")  # pragma: no cover


class _GatewayCollector(Element):
    """Terminal element recording which balancer output a packet took."""

    PORT_COUNT = (1, 0)
    ELEMENT_NAME = "GatewayCollector"

    def configure(self, args: List[str]) -> None:
        """Remember the gateway index this collector stands for."""
        self.gateway = int(args[0])
        self.selected: List[int] = []

    def push(self, port: int, packet: Packet) -> None:
        """Record the selection; ``selected`` is drained by the balancer."""
        self.selected.append(self.gateway)


class RoundRobinBalancer(Balancer):
    """Assignment driven by the LB use case's own ``RoundRobinSwitch``.

    The element runs in FLOWS mode, so a key's first lookup takes the
    rotation slot and every later lookup for the same key sticks to it
    — exactly the per-flow stability a stateful downstream middlebox
    needs, applied at client granularity.
    """

    #: fixed far-end address for the synthetic flow-key packets.
    _SINK = "10.255.255.254"

    def __init__(self, n_gateways: int) -> None:
        super().__init__(n_gateways)
        self._switch = RoundRobinSwitch("fleet-balancer", ["FLOWS"])
        self._collectors: List[_GatewayCollector] = []
        for gateway in range(n_gateways):
            collector = _GatewayCollector(f"fleet-gw-{gateway}", [str(gateway)])
            self._switch.connect_output(gateway, collector, 0)
            self._collectors.append(collector)
        self._sink_addr = IPv4Address(self._SINK)

    def _flow_packet(self, key: str) -> Packet:
        """A synthetic packet whose flow key encodes the client identity."""
        point = _point(key)
        src = IPv4Address(
            f"10.{(point >> 16) & 255}.{(point >> 8) & 255}.{max(1, point & 255)}"
        )
        port = 1024 + (point >> 24) % 40000
        return Packet(IPv4Packet(src=src, dst=self._sink_addr, l4=b"", protocol=17, identification=port))

    def pick(self, key: str) -> int:
        """Push a flow-keyed packet through the switch; read the output port."""
        self._tm_picks.inc()
        self._switch.push(0, self._flow_packet(key))
        for collector in self._collectors:
            if collector.selected:
                return collector.selected.pop()
        raise BalancerError("RoundRobinSwitch did not route the lookup packet")  # pragma: no cover


def make_balancer(policy: str, n_gateways: int) -> Balancer:
    """Construct the balancer for a spec's ``balancer`` policy string."""
    if policy == "hash_ring":
        return HashRing(n_gateways)
    if policy == "round_robin":
        return RoundRobinBalancer(n_gateways)
    raise BalancerError(f"unknown balancer policy {policy!r}")

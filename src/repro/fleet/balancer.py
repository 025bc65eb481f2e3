"""Client→gateway placement: a consistent-hash ring.

:class:`HashRing` assigns clients (keyed by their stable string
identity, e.g. ``"client-42"``) to gateway indices by consistent hashing
over SHA-256 ring points with virtual nodes.  Adding a gateway only
remaps the keys that fall into the new gateway's arcs (~``K/N`` of
them), which is what makes fleet growth cheap: a remapped client
migrates, everyone else keeps their session.  While gateways are down, a
key falls back to the next live owner along the ring.

The ring is deterministic: no randomness, no wall clock, and SHA-256
ring points are fixed for all time.  Every lookup counts into
``fleet.balancer.picks`` on the current telemetry registry.

:meth:`HashRing.moves` is the placement rule both fleets (the
packet-level ``FleetDeployment`` and the swarm) migrate by.
"""

from __future__ import annotations

import bisect
from typing import Collection, List, Sequence, Tuple

from repro.crypto.hashes import sha256
from repro.telemetry.registry import Registry

PICKS_NAME = "fleet.balancer.picks"

#: virtual nodes per gateway; enough that arcs are well mixed and the
#: ≤ ceil(K/N) growth-remap property holds for realistic fleet sizes.
DEFAULT_VNODES = 96


class BalancerError(ValueError):
    """Invalid ring construction or lookup."""


def _point(label: str) -> int:
    """Deterministic ring point for a label (first 8 SHA-256 bytes)."""
    return int.from_bytes(sha256(label.encode())[:8], "big")


class HashRing:
    """Consistent-hash ring over gateway indices with virtual nodes:
    ``pick`` a home gateway, ``fallback`` around outages, ``moves`` by
    the placement rule."""

    def __init__(self, n_gateways: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_gateways < 1:
            raise BalancerError(f"a balancer needs at least one gateway, got {n_gateways}")
        if vnodes < 1:
            raise BalancerError(f"vnodes must be >= 1, got {vnodes}")
        self.n_gateways = n_gateways
        self.vnodes = vnodes
        self._tm_picks = Registry.current().counter(PICKS_NAME)
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
        """Home gateway for ``key``: the first ring point at or after
        ``hash(key)`` owns it (stable across calls)."""
        self._tm_picks.inc()
        index = bisect.bisect_left(self._points, _point(key))
        return self._owner_at(index)

    def fallback(self, key: str, down: Collection[int]) -> int:
        """Gateway for ``key`` while the gateways in ``down`` are out: walk
        the ring past vnodes of down gateways (consistent-hash failover)."""
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

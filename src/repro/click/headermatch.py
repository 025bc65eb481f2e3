"""First-match header classification with per-field bit vectors.

Click's two header classifiers, ``IPFilter`` and ``IPClassifier``,
compile their rule lists once at configure time into one
:class:`HeaderClassifier`; each element's ``push`` is a single
:meth:`HeaderClassifier.match` call.

Every test either grammar allows is an inclusive integer range on one
header field (:data:`FIELDS`): a host is a one-address range, a CIDR net
runs from its network address to its broadcast address, and a packet
without ports (ICMP, an IP fragment's raw body) reads port -1, which no
port range holds.  A rule is a conjunction of such tests; two tests on
one field intersect, and an empty intersection never matches.

Per field that some rule tests, the classifier keeps the sorted starts
of the intervals the rules' range endpoints cut the field into, and for
each interval the bitmask of the rules whose test on that field holds
there (a rule that does not test the field holds everywhere).  A packet
costs one ``bisect`` per tested field, and the lowest set bit of the AND
of the masks is the first matching rule: bit-vector packet
classification (Lakshman & Stiliadis, SIGCOMM 1998).  Masks are Python
ints, so a rule list longer than a machine word needs no special case.

The parse helpers below turn grammar tokens into tests and raise
:class:`~repro.click.element.ElementError` for a value that cannot
match or does not parse, so hostile config text never escapes as a
bare ``ValueError``.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from repro.click.element import ElementError
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet

PROTOCOLS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}

#: one header-field test: ``(field, low, high)``, both ends inclusive
Test = Tuple[str, int, int]


def _src_port(ip: IPv4Packet) -> int:
    return getattr(ip.l4, "src_port", -1)


def _dst_port(ip: IPv4Packet) -> int:
    return getattr(ip.l4, "dst_port", -1)


#: every field a test may name, with the reader that takes it off a packet
FIELDS = {
    "protocol": attrgetter("protocol"),
    "src": attrgetter("src.value"),
    "dst": attrgetter("dst.value"),
    "src_port": _src_port,
    "dst_port": _dst_port,
    "tos": attrgetter("tos"),
}


class HeaderClassifier:
    """The first rule, in list order, whose every test holds for a packet."""

    __slots__ = ("rule_count", "_everyone", "_fields")

    def __init__(self, rules: Sequence[Sequence[Test]]) -> None:
        self.rule_count = len(rules)
        self._everyone = (1 << len(rules)) - 1
        spans: List[Dict[str, Tuple[int, int]]] = []
        for tests in rules:
            conjunction: Dict[str, Tuple[int, int]] = {}
            for field, low, high in tests:
                if field in conjunction:
                    old_low, old_high = conjunction[field]
                    low, high = max(low, old_low), min(high, old_high)
                conjunction[field] = (low, high)
            spans.append(conjunction)
        self._fields = []
        for field, reader in FIELDS.items():
            # sweep the endpoints: a rule's bit toggles on at low and off
            # at high + 1; rules without a test on the field hold everywhere
            toggles: Dict[int, int] = {}
            anywhere = 0
            tested = False
            for index, conjunction in enumerate(spans):
                bit = 1 << index
                span = conjunction.get(field)
                if span is None:
                    anywhere |= bit
                    continue
                tested = True
                low, high = span
                if low <= high:
                    toggles[low] = toggles.get(low, 0) ^ bit
                    toggles[high + 1] = toggles.get(high + 1, 0) ^ bit
            if not tested:
                continue
            starts = sorted(toggles)
            masks = [anywhere]
            live = 0
            for start in starts:
                live ^= toggles[start]
                masks.append(live | anywhere)
            self._fields.append((reader, starts, masks))

    def match(self, ip: IPv4Packet) -> int:
        """Index of the first rule ``ip`` matches, or -1 when none does."""
        bits = self._everyone
        for reader, starts, masks in self._fields:
            bits &= masks[bisect_right(starts, reader(ip))]
        return (bits & -bits).bit_length() - 1


# ----------------------------------------------------------------------
# grammar tokens -> tests
# ----------------------------------------------------------------------
def protocol_test(name: str) -> Test:
    """``tcp``/``udp``/``icmp`` as a protocol-number test."""
    number = PROTOCOLS.get(name)
    if number is None:
        raise ElementError(f"unknown protocol {name!r}")
    return ("protocol", number, number)


def host_test(side: str, text: str) -> Test:
    """One address on the ``src`` or ``dst`` side."""
    try:
        value = IPv4Address(text).value
    except ValueError as exc:
        raise ElementError(f"bad host {text!r}: {exc}") from None
    return (side, value, value)


def net_test(side: str, text: str) -> Test:
    """A CIDR net on the ``src`` or ``dst`` side: network to broadcast."""
    try:
        network = IPv4Network(text)
    except ValueError as exc:
        raise ElementError(f"bad net {text!r}: {exc}") from None
    low = network.network.value
    return (side, low, low | (0xFFFFFFFF >> network.prefix_len))


def _port(text: str) -> int:
    try:
        port = int(text)
    except ValueError:
        raise ElementError(f"bad port {text!r}") from None
    if not 0 <= port <= 0xFFFF:
        raise ElementError(f"port {port} outside 0-65535")
    return port


def port_test(side: str, low_text: str, high_text: str) -> Test:
    """The inclusive port range ``low_text``-``high_text`` on the ``src`` or ``dst`` side."""
    low, high = _port(low_text), _port(high_text)
    if low > high:
        raise ElementError(f"empty port range {low}-{high}")
    return (f"{side}_port", low, high)


def tos_test(text: str) -> Test:
    """A TOS byte, in any base ``int(text, 0)`` reads (``0xeb``, ``235``)."""
    try:
        tos = int(text, 0)
    except ValueError:
        raise ElementError(f"bad TOS {text!r}") from None
    if not 0 <= tos <= 0xFF:
        raise ElementError(f"TOS {tos} outside 0-255")
    return ("tos", tos, tos)

"""IPFilter and IPClassifier classify exactly as a first-match rule walk.

Both elements compile their rule lists into one bit-vector
``HeaderClassifier``.  The differential tests below drive random rule
lists and packets through a real ``Router`` and compare every output,
verdict and ``matched_counts`` entry with a reference walk written
straight from the two grammars: rules in order, each a conjunction of
header tests, the first whose every test holds decides.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.click import ElementError, Router
from repro.netsim import IPv4Packet, TcpSegment, UdpDatagram
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IcmpMessage

PROTOS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}


# ----------------------------------------------------------------------
# the reference: a first-match walk over the rule text
# ----------------------------------------------------------------------
def _port_holds(ip, side, text):
    port = getattr(ip.l4, f"{side}_port", None)
    low, _, high = text.partition("-")
    return port is not None and int(low) <= port <= int(high or low)


def _filter_term_holds(tokens, ip):
    if tokens == ["all"]:
        return True
    if tokens[0] == "proto":
        return ip.protocol == PROTOS[tokens[1]]
    side, kind, value = tokens
    address = ip.src if side == "src" else ip.dst
    if kind == "host":
        return address == IPv4Address(value)
    if kind == "net":
        return address in IPv4Network(value)
    return _port_holds(ip, side, value)


def reference_filter(rules, ip):
    """(index, allow) of the first rule ``ip`` matches, or (-1, None)."""
    for index, rule in enumerate(rules):
        action, expression = rule.split(None, 1)
        if all(_filter_term_holds(term.split(), ip) for term in expression.split("&&")):
            return index, action == "allow"
    return -1, None


def _pattern_holds(pattern, ip):
    if pattern == "-":
        return True
    tokens = pattern.split()
    while tokens:
        if tokens[0] in PROTOS:
            if ip.protocol != PROTOS[tokens[0]]:
                return False
            tokens = tokens[1:]
        elif tokens[0] == "tos":
            if ip.tos != int(tokens[1], 0):
                return False
            tokens = tokens[2:]
        else:
            if not _port_holds(ip, tokens[0], tokens[2]):
                return False
            tokens = tokens[3:]
    return True


def reference_classifier(patterns, ip):
    """Index of the first pattern ``ip`` matches, or -1."""
    for index, pattern in enumerate(patterns):
        if _pattern_holds(pattern, ip):
            return index
    return -1


# ----------------------------------------------------------------------
# routers under test
# ----------------------------------------------------------------------
def filter_router(rules):
    return Router(
        "f :: FromDevice(); fw :: IPFilter(" + ", ".join(rules) + ");\n"
        "allowed :: Counter(); denied :: Counter(); t :: ToDevice(); d :: Discard();\n"
        "f -> fw; fw[0] -> allowed -> t; fw[1] -> denied -> d;"
    )


def classifier_router(patterns):
    lines = ["f :: FromDevice(); cl :: IPClassifier(" + ", ".join(patterns) + "); t :: ToDevice();", "f -> cl;"]
    for out in range(len(patterns)):
        lines.append(f"c{out} :: Counter(); cl[{out}] -> c{out} -> t;")
    return Router("\n".join(lines))


def counts(router, names):
    return [int(router.read_handler(name, "count")) for name in names]


def assert_filter_matches_reference(rules, packets):
    router = filter_router(rules)
    fw = router.element("fw")
    expected_matches = [0] * len(rules)
    for ip in packets:
        index, allow = reference_filter(rules, ip)
        before = counts(router, ("allowed", "denied"))
        accepted, _ = router.process(ip)
        after = counts(router, ("allowed", "denied"))
        if index >= 0:
            expected_matches[index] += 1
        assert accepted == (allow is True)
        assert [b - a for a, b in zip(before, after)] == [
            int(allow is True),
            int(allow is False),
        ]
    assert fw.matched_counts == expected_matches
    assert router.read_handler("fw", "matches") == ",".join(map(str, expected_matches))


def assert_classifier_matches_reference(patterns, packets):
    router = classifier_router(patterns)
    names = [f"c{out}" for out in range(len(patterns))]
    for ip in packets:
        out = reference_classifier(patterns, ip)
        before = counts(router, names)
        accepted, _ = router.process(ip)
        after = counts(router, names)
        assert accepted == (out >= 0)
        assert [b - a for a, b in zip(before, after)] == [int(i == out) for i in range(len(patterns))]


# ----------------------------------------------------------------------
# strategies: small value pools so that rules and packets often meet
# ----------------------------------------------------------------------
ADDRESS_POOL = ["10.0.0.1", "10.0.0.2", "10.0.0.9", "10.0.1.7", "192.0.2.17", "192.0.2.200", "0.0.0.0", "255.255.255.255"]
addresses = st.one_of(
    st.sampled_from(ADDRESS_POOL),
    st.integers(0, 0xFFFFFFFF).map(lambda value: str(IPv4Address(value))),
)
ports = st.one_of(st.sampled_from([0, 1, 22, 23, 80, 443, 1194, 65535]), st.integers(0, 0xFFFF))
port_ranges = st.one_of(
    st.just("0-65535"),  # holds for every packet with ports, none without
    ports.map(str),
    st.tuples(ports, ports).map(lambda pair: "%d-%d" % tuple(sorted(pair))),
)
toses = st.one_of(st.sampled_from([0, 1, 0xEB, 0xFF]), st.integers(0, 0xFF))
sides = st.sampled_from(["src", "dst"])

filter_terms = st.one_of(
    st.just("all"),
    st.sampled_from(sorted(PROTOS)).map(lambda name: f"proto {name}"),
    st.tuples(sides, addresses).map(lambda t: f"{t[0]} host {t[1]}"),
    st.tuples(sides, addresses, st.integers(0, 32)).map(lambda t: f"{t[0]} net {t[1]}/{t[2]}"),
    st.tuples(sides, port_ranges).map(lambda t: f"{t[0]} port {t[1]}"),
)
filter_rule = st.tuples(
    st.sampled_from(["allow", "deny", "drop"]), st.lists(filter_terms, min_size=1, max_size=3)
).map(lambda t: f"{t[0]} {' && '.join(t[1])}")

pattern_tokens = st.one_of(
    st.sampled_from(sorted(PROTOS)),
    st.tuples(sides, ports).map(lambda t: f"{t[0]} port {t[1]}"),
    toses.map(lambda tos: f"tos {tos:#x}"),
    toses.map(lambda tos: f"tos {tos}"),
)
pattern = st.one_of(
    st.just("-"),
    st.lists(pattern_tokens, min_size=1, max_size=3).map(" ".join),
)


def rule_lists(rule):
    """Short lists, and lists longer than 64 so masks span machine words."""
    return st.one_of(st.lists(rule, min_size=1, max_size=8), st.lists(rule, min_size=65, max_size=90))


@st.composite
def packets(draw):
    src, dst = draw(addresses), draw(addresses)
    tos = draw(toses)
    kind = draw(st.sampled_from(["udp", "tcp", "icmp", "fragment"]))
    if kind == "udp":
        l4 = UdpDatagram(draw(ports), draw(ports), b"payload")
        return IPv4Packet(src=src, dst=dst, l4=l4, tos=tos)
    if kind == "tcp":
        l4 = TcpSegment(draw(ports), draw(ports), payload=b"payload")
        return IPv4Packet(src=src, dst=dst, l4=l4, tos=tos)
    if kind == "icmp":
        return IPv4Packet(src=src, dst=dst, l4=IcmpMessage(8, payload=b"ping"), tos=tos)
    # a fragment's body is raw bytes: its protocol is set, its ports are not
    protocol = draw(st.sampled_from(sorted(PROTOS.values())))
    return IPv4Packet(src=src, dst=dst, l4=b"\x00" * 16, tos=tos, protocol=protocol, more_fragments=True)


# ----------------------------------------------------------------------
# differential tests, each pinned to the corner cases by explicit examples
# ----------------------------------------------------------------------
def udp(dport=5001, src="10.8.0.2", tos=0):
    return IPv4Packet(src=src, dst="10.0.0.9", l4=UdpDatagram(40000, dport, b"x"), tos=tos)


ICMP = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=IcmpMessage(8))
UDP_FRAGMENT = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=b"\x00" * 8, protocol=PROTO_UDP, more_fragments=True)
PORT_PACKETS = [udp(dport=1069), udp(dport=1064), udp(dport=5), udp(dport=1000), ICMP, UDP_FRAGMENT]


@settings(max_examples=100, deadline=None)
@given(rule_lists(filter_rule), st.lists(packets(), min_size=1, max_size=20))
@example([f"deny dst port {1000 + index}" for index in range(70)] + ["allow all"], PORT_PACKETS)
@example(["deny src port 0-65535", "deny dst port 0-65535", "allow proto udp"], [ICMP, UDP_FRAGMENT, udp()])
@example(["deny proto tcp && proto udp", "deny dst port 22 && dst port 23", "allow all"], [udp(dport=23)])
@example(["allow dst port 443", "deny src host 10.0.0.1"], [udp(dport=80), ICMP])
def test_ipfilter_first_match_equals_reference_walk(rules, packet_list):
    assert_filter_matches_reference(rules, packet_list)


@settings(max_examples=100, deadline=None)
@given(rule_lists(pattern), st.lists(packets(), min_size=1, max_size=20))
@example([f"dst port {1000 + index}" for index in range(70)] + ["-"], PORT_PACKETS)
@example(["src port 40000", "dst port 0", "udp"], [ICMP, UDP_FRAGMENT, udp()])
@example(["tcp udp", "tos 1 tos 2", "udp"], [udp(tos=1)])
@example(["tcp", "tos 0xeb"], [udp(), ICMP])
def test_ipclassifier_first_match_equals_reference_walk(pattern_list, packet_list):
    assert_classifier_matches_reference(pattern_list, packet_list)


# ----------------------------------------------------------------------
# arguments that can never match, or do not parse, fail at configure
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "element",
    [
        "IPFilter(deny dst port 23-22, allow all)",  # empty range
        "IPFilter(deny dst port 70000, allow all)",  # beyond 65535
        "IPFilter(deny dst port 2x3, allow all)",  # not a number
        "IPFilter(deny src port -1, allow all)",
        "IPFilter(deny src host 10.0.0.256, allow all)",  # bad host
        "IPFilter(deny dst host 10.0.0, allow all)",
        "IPFilter(deny src net 10.0.0.0/33, allow all)",  # bad net
        "IPFilter(deny dst net 10.0.0.0, allow all)",
        "IPFilter(deny dst net ten/8, allow all)",
        "IPClassifier(udp src port 99999, -)",
        "IPClassifier(dst port 80x, -)",
        "IPClassifier(dst port 80-90, -)",  # IPClassifier takes one port
        "IPClassifier(tos zz, -)",
        "IPClassifier(tos 0x100, -)",
    ],
)
def test_classifier_argument_rejected_at_configure(element):
    with pytest.raises(ElementError):
        Router(f"f :: FromDevice(); x :: {element}; t :: ToDevice(); f -> x -> t;")

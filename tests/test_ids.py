"""IDS substrate tests: Aho-Corasick, Snort rule parsing, community set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import AhoCorasick, RuleSyntaxError, aho_corasick, community_ruleset, parse_rules
from repro.ids.community_rules import COMMUNITY_RULE_COUNT, ruleset_text
from repro.ids.snort_rules import parse_rule
from repro.netsim import IPv4Packet, TcpSegment, UdpDatagram


# ----------------------------------------------------------------------
# Aho-Corasick
# ----------------------------------------------------------------------
def test_single_pattern_match():
    ac = AhoCorasick([b"abc"])
    assert ac.scan(b"xxabcxx") == [(0, 5)]


def test_multiple_patterns_overlapping():
    ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
    matches = ac.scan(b"ushers")
    found = {(ac.patterns[pid], end) for pid, end in matches}
    assert found == {(b"she", 4), (b"he", 4), (b"hers", 6)}


def test_no_match():
    ac = AhoCorasick([b"virus", b"trojan"])
    assert ac.scan(b"perfectly clean payload") == []
    assert not ac.matches(b"clean")


def test_pattern_at_start_and_end():
    ac = AhoCorasick([b"start", b"end"])
    assert ac.matches(b"start middle end")
    assert ac.first_match(b"start middle end") == 0


def test_repeated_pattern_counts_every_occurrence():
    ac = AhoCorasick([b"ab"])
    assert len(ac.scan(b"ababab")) == 3


def test_case_insensitive_mode():
    ac = AhoCorasick([b"CMD.EXE"], case_insensitive=True)
    assert ac.matches(b"run cmd.exe now")
    assert ac.matches(b"run CMD.exe now")


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        AhoCorasick([b""])


def test_add_pattern_after_scan_rebuilds():
    """New bytes join the alphabet and a new pattern extends an old path."""
    ac = AhoCorasick([b"one"])
    assert ac.scan(b"zone") == [(0, 4)]
    ac.add_pattern(b"ones")
    ac.add_pattern(b"z")
    ac.add_pattern(b"two")
    assert ac.scan(b"zones two") == [(2, 1), (0, 4), (1, 5), (3, 9)]


def test_binary_patterns():
    ac = AhoCorasick([bytes([0xBE, 0xEF, 0xFA, 0xCE])])
    assert ac.matches(b"\x00\xbe\xef\xfa\xce\x00")


class _CollidingBytes(bytes):
    def __hash__(self):
        return 42


def test_scan_verdict_ignores_payload_hash():
    ac = AhoCorasick([b"cmd.exe"])
    assert not ac.matches(_CollidingBytes(b"run notepad"))
    assert ac.matches(_CollidingBytes(b"run cmd.exe"))  # same hash, same length


def _naive_scan(patterns, haystack, case_insensitive=False):
    """Every (pattern id, end offset) that ``bytes.find`` sees, in the order
    the automaton reports them: by end offset, then the longest pattern
    first, then by id."""
    if case_insensitive:
        patterns = [pattern.lower() for pattern in patterns]
        haystack = haystack.lower()
    found = []
    for pid, pattern in enumerate(patterns):
        start = haystack.find(pattern)
        while start >= 0:
            found.append((start + len(pattern), -len(pattern), pid))
            start = haystack.find(pattern, start + 1)
    return [(pid, end) for end, _longest_first, pid in sorted(found)]


#: dense table depths to check the scan at, around the module's own
DENSE_DEPTHS = [0, 1, 2, 3, 6]
#: few symbols, so that patterns share prefixes and suffixes and overlap
SMALL_ALPHABET = b"abAB\x00\xff"


def _small(max_size):
    return st.lists(st.sampled_from(SMALL_ALPHABET), max_size=max_size).map(bytes)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.binary(min_size=1, max_size=8), _small(8).filter(bool)),
        min_size=1,
        max_size=8,
    ),
    st.one_of(st.binary(max_size=300), _small(300)),
    st.booleans(),
)
def test_aho_corasick_agrees_with_naive_search(patterns, haystack, case_insensitive):
    expected = _naive_scan(patterns, haystack, case_insensitive)
    for depth in DENSE_DEPTHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aho_corasick, "DENSE_DEPTH", depth)
            ac = AhoCorasick(patterns, case_insensitive=case_insensitive)
            assert ac.scan(haystack) == expected, depth


EDGE_CASES = {
    "patterns of length 1 and 2": ([b"a", b"ab", b"b"], b"xabab", False),
    "a prefix of another": ([b"abc", b"abcdef"], b"abcdefabc", False),
    "a suffix of another": ([b"cdef", b"ef", b"f"], b"abcdef", False),
    "overlapping occurrences": ([b"aa", b"aaa"], b"aaaaa", False),
    "bytes outside the alphabet": ([b"\xbe\xef", b"ef"], bytes(range(256)) + b"\xbe\xef", False),
    "every byte in some pattern": ([bytes(range(256)), b"\xff\x00"], bytes(range(256)) * 2, False),
    "a match on the last byte": ([b"tail", b"il"], b"on the tail", False),
    "empty data": ([b"x", b"xy"], b"", False),
    "case_insensitive": ([b"CmD.eXe", b"md", b"E"], b"run CMD.exe cmd.EXE", True),
}


@pytest.mark.parametrize(
    "patterns, data, case_insensitive", list(EDGE_CASES.values()), ids=list(EDGE_CASES)
)
def test_scan_edge_cases_agree_with_naive_search(patterns, data, case_insensitive):
    ac = AhoCorasick(patterns, case_insensitive=case_insensitive)
    assert ac.scan(data) == _naive_scan(patterns, data, case_insensitive)


def test_scan_reports_in_order_with_exact_end_offsets():
    ac = AhoCorasick([b"a", b"ab", b"b", b"abc", b"bc"])
    assert ac.scan(b"abcab") == [(0, 1), (1, 2), (2, 2), (3, 3), (4, 3), (0, 4), (1, 5), (2, 5)]


COMMUNITY_PATTERNS = [content.pattern for rule in community_ruleset() for content in rule.contents]


def _community_automaton():
    """The IDSMatcher's automaton: community patterns, case folded."""
    return AhoCorasick(COMMUNITY_PATTERNS, case_insensitive=True)


def test_community_scan_exact_at_every_depth():
    """Each pattern planted whole and cut at every length, so the scan
    leaves the dense table and comes back at every depth it has."""
    ac = _community_automaton()
    for pattern in COMMUNITY_PATTERNS:
        for cut in range(1, len(pattern) + 1):
            data = b"~" + pattern[:cut] + pattern + pattern[:cut].upper()
            assert ac.scan(data) == _naive_scan(COMMUNITY_PATTERNS, data, True), (pattern, cut)


def _plant(pattern, cut, upper):
    """A pattern's first ``cut`` bytes (all of it when ``cut`` is long enough)."""
    piece = pattern[:cut]
    return piece.upper() if upper else piece


PLANTED = st.builds(_plant, st.sampled_from(COMMUNITY_PATTERNS), st.integers(1, 16), st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=24), PLANTED), max_size=12).map(b"".join))
def test_community_scan_agrees_with_naive_search(data):
    assert _community_automaton().scan(data) == _naive_scan(COMMUNITY_PATTERNS, data, True)


def test_dense_table_has_rows_only_for_the_shallow_states():
    """One row per distinct pattern prefix of at most DENSE_DEPTH bytes
    (plus the root), one column per byte class: never the whole automaton."""
    ac = _community_automaton()
    ac.scan(b"")
    patterns = ac.patterns
    prefixes = {pattern[:depth] for pattern in patterns for depth in range(aho_corasick.DENSE_DEPTH + 1)}
    classes = 1 + len(set().union(*patterns))
    assert len(ac._table) == len(prefixes) * classes == 503 * 158


# ----------------------------------------------------------------------
# Snort rule parsing
# ----------------------------------------------------------------------
def test_parse_full_rule():
    rule = parse_rule(
        'alert tcp $EXTERNAL_NET any -> $HOME_NET 80 '
        '(msg:"WEB attack"; content:"/etc/passwd"; nocase; sid:1002; rev:3;)',
        variables={"EXTERNAL_NET": "any", "HOME_NET": "10.8.0.0/16"},
    )
    assert rule.action == "alert"
    assert rule.protocol == "tcp"
    assert rule.content_patterns == [b"/etc/passwd"]
    assert rule.nocase and rule.sid == 1002 and rule.rev == 3


def test_hex_escape_content():
    rule = parse_rule('alert udp any any -> any 53 (content:"|00 00 FC|"; sid:1;)')
    assert rule.content_patterns == [b"\x00\x00\xfc"]


def test_mixed_text_and_hex_content():
    rule = parse_rule('alert tcp any any -> any 80 (content:"..|25|c0"; sid:2;)')
    assert rule.content_patterns == [b"..%c0"]


def test_port_range():
    rule = parse_rule("alert tcp any 1024: -> any :1023 (sid:3;)")
    assert rule.src_port.matches(5000) and not rule.src_port.matches(80)
    assert rule.dst_port.matches(80) and not rule.dst_port.matches(5000)


def test_negated_address():
    rule = parse_rule("alert tcp !10.0.0.0/8 any -> any any (sid:4;)")
    packet_out = IPv4Packet(src="192.168.1.1", dst="10.8.0.1", l4=TcpSegment(1, 2))
    packet_in = IPv4Packet(src="10.1.1.1", dst="10.8.0.1", l4=TcpSegment(1, 2))
    assert rule.header_matches(packet_out)
    assert not rule.header_matches(packet_in)


def test_protocol_constraint():
    rule = parse_rule('alert udp any any -> any any (content:"x"; sid:5;)')
    udp = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=UdpDatagram(1, 2, b"x"))
    tcp = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 2, payload=b"x"))
    assert rule.matches(udp)
    assert not rule.matches(tcp)


def test_multiple_contents_all_required():
    rule = parse_rule('alert tcp any any -> any any (content:"foo"; content:"bar"; sid:6;)')
    both = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 2, payload=b"foo ... bar"))
    one = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 2, payload=b"foo only"))
    assert rule.matches(both)
    assert not rule.matches(one)


def test_bad_rules_rejected():
    for bad in [
        "gibberish",
        "alert tcp any any -> any any (frob:1;)",
        "explode tcp any any -> any any (sid:1;)",
        "alert quic any any -> any any (sid:1;)",
        'alert tcp any any -> any any (content:"|0|"; sid:1;)',
    ]:
        with pytest.raises(RuleSyntaxError):
            parse_rule(bad)


def test_parse_rules_skips_comments_and_blanks():
    rules = parse_rules("# comment\n\nalert tcp any any -> any any (sid:1;)\n")
    assert len(rules) == 1


# ----------------------------------------------------------------------
# community rule set
# ----------------------------------------------------------------------
def test_community_ruleset_size_and_determinism():
    a = community_ruleset()
    b = community_ruleset()
    assert len(a) == COMMUNITY_RULE_COUNT == 377
    assert [r.sid for r in a] == [r.sid for r in b]


def test_community_ruleset_does_not_match_printable_traffic():
    rules = community_ruleset()
    payload = bytes((i % 95) + 32 for i in range(1500))  # printable ASCII
    packet = IPv4Packet(src="10.8.0.2", dst="10.8.0.3", l4=UdpDatagram(40000, 5001, payload))
    assert not any(rule.matches(packet) for rule in rules)


def test_community_ruleset_text_roundtrips_through_parser():
    text = ruleset_text(50)
    rules = parse_rules(text, variables={"HOME_NET": "10.8.0.0/16", "EXTERNAL_NET": "any"})
    assert len(rules) >= 50


def test_community_ruleset_text_parses_to_the_ruleset():
    def by_sid(rules):
        return [(rule.sid, [content.pattern for content in rule.contents]) for rule in rules]

    variables = {"HOME_NET": "10.0.0.0/8", "EXTERNAL_NET": "any"}
    parsed = parse_rules(ruleset_text(), variables=variables)
    assert by_sid(parsed) == by_sid(community_ruleset())
    assert len(ruleset_text().splitlines()) == COMMUNITY_RULE_COUNT + 1  # plus the header


# ----------------------------------------------------------------------
# content positional modifiers (offset/depth/distance/within)
# ----------------------------------------------------------------------
def tcp_packet(payload, dport=80):
    return IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, dport, payload=payload))


def test_offset_and_depth_constrain_absolute_position():
    rule = parse_rule('alert tcp any any -> any 80 (content:"EVIL"; offset:4; depth:4; sid:20;)')
    assert rule.matches(tcp_packet(b"xxxxEVILyyyy"))  # starts exactly at 4
    assert not rule.matches(tcp_packet(b"EVILxxxxyyyy"))  # too early
    assert not rule.matches(tcp_packet(b"xxxxxxxxEVIL"))  # too late


def test_distance_and_within_are_relative_to_previous_match():
    rule = parse_rule(
        'alert tcp any any -> any 80 '
        '(content:"HEAD"; content:"TAIL"; distance:2; within:4; sid:21;)'
    )
    assert rule.matches(tcp_packet(b"HEADxxTAILzz"))  # TAIL 2 bytes after HEAD
    assert not rule.matches(tcp_packet(b"HEADTAILzzzz"))  # too close (distance 2)
    assert not rule.matches(tcp_packet(b"HEADxxxxxxxxxxTAIL"))  # beyond within


def test_modifier_without_content_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("alert tcp any any -> any 80 (offset:4; sid:22;)")


def test_contents_must_match_in_order():
    rule = parse_rule(
        'alert tcp any any -> any 80 (content:"one"; content:"two"; distance:0; sid:23;)'
    )
    assert rule.matches(tcp_packet(b"one then two"))
    assert not rule.matches(tcp_packet(b"two then one"))


def test_modifiers_respect_nocase():
    rule = parse_rule(
        'alert tcp any any -> any 80 (content:"BOOM"; offset:2; depth:3; nocase; sid:24;)'
    )
    assert rule.matches(tcp_packet(b"xxboomyy"))
    assert not rule.matches(tcp_packet(b"boomxxyy"))


# ----------------------------------------------------------------------
# pcre option
# ----------------------------------------------------------------------
def test_pcre_rule_matches_regex():
    rule = parse_rule('alert tcp any any -> any 80 (pcre:"/etc\\/(passwd|shadow)/"; sid:30;)')
    assert rule.matches(tcp_packet(b"GET /etc/shadow"))
    assert rule.matches(tcp_packet(b"GET /etc/passwd"))
    assert not rule.matches(tcp_packet(b"GET /etc/hosts"))


def test_pcre_case_insensitive_flag():
    rule = parse_rule('alert tcp any any -> any 80 (pcre:"/select.+from/i"; sid:31;)')
    assert rule.matches(tcp_packet(b"SELECT name FROM users"))
    assert not rule.matches(tcp_packet(b"nothing here"))


def test_pcre_combined_with_content():
    rule = parse_rule(
        'alert tcp any any -> any 80 (content:"POST"; pcre:"/token=[0-9a-f]{8}/"; sid:32;)'
    )
    assert rule.matches(tcp_packet(b"POST /x token=deadbeef"))
    assert not rule.matches(tcp_packet(b"GET /x token=deadbeef"))  # content missing
    assert not rule.matches(tcp_packet(b"POST /x token=zzz"))  # pcre missing


def test_pcre_syntax_errors_rejected():
    for bad in ['pcre:"no-slashes"', 'pcre:"/unclosed"', 'pcre:"/a(/"', 'pcre:"/ok/q"']:
        with pytest.raises(RuleSyntaxError):
            parse_rule(f"alert tcp any any -> any 80 ({bad}; sid:33;)")

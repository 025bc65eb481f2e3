"""A deterministic 377-rule community-style rule set.

The paper evaluates the IDPS with "a subset of 377 rules of the Snort
community rule set" whose patterns do not match the generated traffic
(§V-B).  The real community rules are not redistributable here, so we
generate a structurally similar set: web-attack, malware-CnC, scan and
protocol-anomaly signatures with realistic content strings, plus
synthetic high-entropy patterns that provably cannot occur in the
benchmark payloads (which are printable-ASCII).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.crypto.drbg import HmacDrbg
from repro.ids.snort_rules import SnortRule, parse_rules

#: number of rules in the paper's subset
COMMUNITY_RULE_COUNT = 377

_TEMPLATE_RULES = """
alert tcp any any -> $HOME_NET 80 (msg:"WEB-MISC /etc/passwd access"; content:"/etc/passwd"; sid:1122; rev:6;)
alert tcp any any -> $HOME_NET 80 (msg:"WEB-ATTACKS cmd.exe access"; content:"cmd.exe"; nocase; sid:1002; rev:9;)
alert tcp any any -> $HOME_NET 80 (msg:"WEB-IIS unicode directory traversal"; content:"..|25|c0|25|af"; sid:981; rev:8;)
alert tcp any any -> $HOME_NET 80 (msg:"WEB-PHP remote include path"; content:"php://input"; nocase; sid:2002; rev:3;)
alert tcp any any -> $HOME_NET 80 (msg:"SQL injection attempt"; content:"union select"; nocase; sid:2003; rev:4;)
alert tcp $HOME_NET any -> any 6667 (msg:"CHAT IRC nick change on non-standard port"; content:"NICK "; sid:542; rev:11;)
alert udp any any -> $HOME_NET 53 (msg:"DNS zone transfer attempt"; content:"|00 00 FC|"; sid:255; rev:13;)
alert tcp any any -> $HOME_NET 21 (msg:"FTP SITE EXEC attempt"; content:"SITE EXEC"; nocase; sid:361; rev:10;)
alert tcp any any -> $HOME_NET 23 (msg:"TELNET login buffer overflow"; content:"|FF F6 FF F6|"; sid:712; rev:7;)
alert icmp any any -> $HOME_NET any (msg:"ICMP covert channel payload"; content:"|BE EF FA CE|"; sid:471; rev:2;)
alert tcp $HOME_NET any -> any 25 (msg:"SMTP possible malware beacon"; content:"X-Bot-ID:"; sid:3101; rev:1;)
alert tcp any any -> $HOME_NET 445 (msg:"NETBIOS SMB admin share access"; content:"|5C|ADMIN|24|"; sid:2474; rev:5;)
"""


def _synthetic_rule(index: int, drbg: HmacDrbg) -> str:
    """A synthetic signature with a non-ASCII (unmatchable) pattern."""
    categories = [
        ("MALWARE-CNC beacon", "tcp", "any", "$HOME_NET", 80),
        ("TROJAN callback", "tcp", "$HOME_NET", "any", 443),
        ("EXPLOIT shellcode", "tcp", "any", "$HOME_NET", 8080),
        ("SCAN probe", "udp", "any", "$HOME_NET", 161),
        ("POLICY suspicious transfer", "tcp", "any", "$HOME_NET", 21),
    ]
    msg, proto, src, dst, port = categories[index % len(categories)]
    # 8-16 high bytes (0x80-0xFF): cannot occur in printable-ASCII traffic
    length = 8 + drbg.randint(9)
    pattern = bytes(0x80 + drbg.randint(0x80) for _ in range(length))
    hex_text = " ".join(f"{b:02X}" for b in pattern)
    return (
        f'alert {proto} {src} any -> {dst} {port} '
        f'(msg:"{msg} #{index}"; content:"|{hex_text}|"; sid:{100000 + index}; rev:1;)'
    )


def _rule_lines(count: int) -> Iterator[str]:
    """The template rules, then synthetic ones until ``count`` rules exist."""
    template = _TEMPLATE_RULES.strip().splitlines()
    yield from template
    drbg = HmacDrbg(b"community-ruleset-v1")
    for index in range(count - len(template)):
        yield _synthetic_rule(index, drbg)


def community_ruleset(count: int = COMMUNITY_RULE_COUNT, home_net: str = "10.0.0.0/8") -> List[SnortRule]:
    """Generate ``count`` rules (deterministic)."""
    variables = {"HOME_NET": home_net, "EXTERNAL_NET": "any"}
    return parse_rules("\n".join(_rule_lines(count)), variables)[:count]


def ruleset_text(count: int = COMMUNITY_RULE_COUNT) -> str:
    """The rule set as a rules-file string (for config distribution)."""
    return "\n".join(["# EndBox reproduction community-style rule set", *_rule_lines(count)])

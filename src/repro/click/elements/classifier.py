"""IPClassifier: route packets to outputs by protocol/port patterns.

Supported patterns (one per output, comma-separated arguments); the
tokens of one pattern are a conjunction::

    tcp | udp | icmp            protocol match
    tcp dst port 443            protocol + destination port
    src port 1194               source port (0-65535)
    tos 0xeb                    TOS byte match (0-255; EndBox's c2c flag)
    -                           catch-all

A packet leaves on the output of the first pattern it matches, and is
rejected when it matches none.  A port pattern never holds for a packet
without ports (ICMP, an IP fragment).  Configure compiles the patterns
into one :class:`~repro.click.headermatch.HeaderClassifier`, so ``push``
is a single classifier call.
"""

from __future__ import annotations

from typing import List

from repro.click.element import Element, ElementError, Packet
from repro.click.headermatch import (
    PROTOCOLS,
    HeaderClassifier,
    Test,
    port_test,
    protocol_test,
    tos_test,
)
from repro.click.registry import register_element


@register_element("IPClassifier")
class IPClassifier(Element):
    PORT_COUNT = (1, None)

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ElementError(f"{self.name}: IPClassifier needs at least one pattern")
        self._classifier = HeaderClassifier([self._parse(pattern.strip()) for pattern in args])

    def _parse(self, pattern: str) -> List[Test]:
        if pattern == "-":
            return []
        tokens = pattern.split()
        tests: List[Test] = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token in PROTOCOLS:
                tests.append(protocol_test(token))
                index += 1
            elif token in ("src", "dst") and index + 2 < len(tokens) and tokens[index + 1] == "port":
                port = tokens[index + 2]
                tests.append(port_test(token, port, port))
                index += 3
            elif token == "tos" and index + 1 < len(tokens):
                tests.append(tos_test(tokens[index + 1]))
                index += 2
            else:
                raise ElementError(f"{self.name}: cannot parse pattern {pattern!r}")
        return tests

    def push(self, port: int, packet: Packet) -> None:
        out_port = self._classifier.match(packet.ip)
        if out_port < 0:
            packet.verdict = packet.verdict or "reject"
            return
        self.output(out_port, packet)

    def check_wiring(self) -> None:
        for out_port in range(self._classifier.rule_count):
            if out_port >= len(self._outputs) or self._outputs[out_port] is None:
                raise ElementError(f"{self.name}: pattern output {out_port} not connected")

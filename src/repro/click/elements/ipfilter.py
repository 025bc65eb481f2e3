"""IPFilter: rule-based firewall element (the FW use case, §V-B).

Each configuration argument is ``<action> <expression>`` where action is
``allow``, ``deny`` or ``drop`` (an alias of ``deny``) and the
expression is a conjunction (``&&``) of:

* ``all``
* ``proto tcp|udp|icmp``
* ``src host A.B.C.D`` / ``dst host A.B.C.D``
* ``src net CIDR``      / ``dst net CIDR``
* ``src port N[-M]``    / ``dst port N[-M]``  (0-65535, N <= M)

Rules are evaluated in order; the first match decides.  Allowed packets
leave on output 0, denied packets on output 1 (or are rejected if
output 1 is unconnected), and a packet no rule matches is rejected —
Click's IPFilter semantics.  A port test never holds for a packet
without ports (ICMP, an IP fragment).

Configure compiles the whole rule list into one
:class:`~repro.click.headermatch.HeaderClassifier`, so ``push`` costs
one ``bisect`` per tested header field whatever the rule count.  The
modeled cost still charges ``ipfilter_per_rule`` per rule, as the
paper's linear IPFilter does.  The paper's FW configuration uses 16
rules that match no benchmark packet; see
:func:`repro.click.configs.firewall_config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.click.element import Element, ElementError, Packet
from repro.click.headermatch import (
    HeaderClassifier,
    Test,
    host_test,
    net_test,
    port_test,
    protocol_test,
)
from repro.click.registry import register_element


@dataclass
class FilterRule:
    """One configured rule: its action, its header tests and its text."""

    allow: bool
    tests: Tuple[Test, ...]
    text: str


def _parse_term(tokens: List[str]) -> Optional[Test]:
    if tokens == ["all"]:
        return None
    if len(tokens) == 2 and tokens[0] == "proto":
        return protocol_test(tokens[1])
    if len(tokens) == 3 and tokens[0] in ("src", "dst"):
        side, kind, value = tokens
        if kind == "host":
            return host_test(side, value)
        if kind == "net":
            return net_test(side, value)
        if kind == "port":
            low, dash, high = value.partition("-")
            return port_test(side, low, high if dash else low)
    raise ElementError(f"cannot parse filter term {' '.join(tokens)!r}")


@register_element("IPFilter")
class IPFilter(Element):
    PORT_COUNT = (1, None)

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ElementError(f"{self.name}: IPFilter needs at least one rule")
        self.rules: List[FilterRule] = []
        for arg in args:
            parts = arg.split(None, 1)
            if len(parts) != 2 or parts[0] not in ("allow", "deny", "drop"):
                raise ElementError(f"{self.name}: bad rule {arg!r}")
            action, expression = parts
            terms = [_parse_term(term.split()) for term in expression.split("&&")]
            tests = tuple(test for test in terms if test is not None)
            self.rules.append(FilterRule(allow=(action == "allow"), tests=tests, text=arg))
        self._classifier = HeaderClassifier([rule.tests for rule in self.rules])
        self.matched_counts = [0] * len(self.rules)

    def push(self, port: int, packet: Packet) -> None:
        index = self._classifier.match(packet.ip)
        if index < 0:
            # Click's IPFilter default: packets matching no rule are dropped.
            packet.verdict = packet.verdict or "reject"
            return
        self.matched_counts[index] += 1
        allow = self.rules[index].allow
        self.output(0 if allow else 1, packet)  # unconnected output 1 rejects

    def check_wiring(self) -> None:
        if not self._outputs or self._outputs[0] is None:
            raise ElementError(f"{self.name}: output 0 (allow) not connected")

    def cost(self, packet: Packet) -> float:
        model = self.router.cost_model if self.router else None
        if model is None:
            return 0.0
        base = model.click_element_fixed + len(self.rules) * model.ipfilter_per_rule
        if self.router.context.get("in_enclave"):
            base *= model.enclave_compute_factor
        return base

    def read_handler(self, name: str) -> str:
        """Read a named statistic (Click's read-handler interface)."""
        if name == "rule_count":
            return str(len(self.rules))
        if name == "matches":
            return ",".join(str(c) for c in self.matched_counts)
        return super().read_handler(name)

"""IDSMatcher: EndBox's custom IDPS element (§V-B).

Executes a Snort rule set using Aho–Corasick multi-pattern matching: one
automaton holds every ``content`` pattern of every rule; a single pass
over the payload yields candidate rules, whose remaining constraints
(header fields, all-contents-present) are then checked exactly.

Outputs: 0 = clean packets, 1 = matched packets (drop/alert path; if
unconnected, matched packets are rejected, i.e. intrusion *prevention*).

The rule set comes either from the configuration argument (inline rules
text) or from the router context key ``ruleset`` (a list of
:class:`~repro.ids.snort_rules.SnortRule`).
"""

from __future__ import annotations

from typing import List

from repro.click.element import Element, ElementError, Packet
from repro.click.registry import register_element
from repro.ids.aho_corasick import AhoCorasick
from repro.ids.snort_rules import SnortRule, parse_rules


@register_element("IDSMatcher")
class IDSMatcher(Element):
    PORT_COUNT = (1, None)

    def configure(self, args: List[str]) -> None:
        self._rules_arg = args[0] if args else None
        self.rules: List[SnortRule] = []
        self.automaton: AhoCorasick | None = None
        self._pattern_owner: List[int] = []  # pattern id -> rule index
        self.alerts: List[int] = []  # sids of matched rules
        self.packets_matched = 0

    def initialize(self, router) -> None:
        super().initialize(router)
        if self._rules_arg:
            self.rules = parse_rules(self._rules_arg.replace("\\n", "\n"))
        else:
            self.rules = list(router.context.get("ruleset", []))
        if not self.rules:
            raise ElementError(f"{self.name}: no rules configured")
        self._compile()

    def _compile(self) -> None:
        # Patterns enter the automaton lowercased and the scan folds the
        # payload's case: that makes the automaton a *superset* prefilter
        # for both case modes (a case-sensitive match implies a
        # case-insensitive one); the exact rule.payload_matches() check in
        # _match restores precision (including offset/depth/distance/within
        # constraints).
        self.automaton = AhoCorasick([], case_insensitive=True)
        self._pattern_owner = []
        contentless = []
        for index, rule in enumerate(self.rules):
            if not rule.contents:
                contentless.append(index)
            for content in rule.contents:
                self.automaton.add_pattern(content.pattern)
                self._pattern_owner.append(index)
        #: rules with no content pattern: candidates for every packet
        self._contentless = tuple(contentless)

    # ------------------------------------------------------------------
    def push(self, port: int, packet: Packet) -> None:
        # when an upstream TLSDecrypt recovered application plaintext,
        # inspect that instead of the (opaque) ciphertext bytes (§III-D)
        payload = packet.annotations.get("tls_plaintext", packet.payload_bytes)
        matched_rule = self._match(packet, payload)
        if matched_rule is None:
            self.output(0, packet)
            return
        self.packets_matched += 1
        self.alerts.append(matched_rule.sid)
        packet.annotations["ids_sid"] = matched_rule.sid
        packet.annotations["ids_msg"] = matched_rule.msg
        if matched_rule.action in ("drop", "alert"):
            self.output(1, packet)  # rejected when output 1 unconnected
        else:
            self.output(0, packet)

    def _match(self, packet: Packet, payload: bytes) -> SnortRule | None:
        """First rule that fully matches, or None."""
        owner = self._pattern_owner
        candidate_rules = {owner[pattern_id] for pattern_id, _end in self.automaton.scan(payload)}
        candidate_rules.update(self._contentless)
        for rule_index in sorted(candidate_rules):
            rule = self.rules[rule_index]
            if not rule.header_matches(packet.ip):
                continue
            if rule.payload_matches(payload):
                return rule
        return None

    # ------------------------------------------------------------------
    def take_state(self, predecessor: "IDSMatcher") -> None:
        self.alerts = list(predecessor.alerts)
        self.packets_matched = predecessor.packets_matched

    def cost(self, packet: Packet) -> float:
        model = self.router.cost_model if self.router else None
        if model is None:
            return 0.0
        base = model.idsmatcher_fixed + len(packet.payload_bytes) * model.idsmatcher_per_byte
        context = self.router.context
        if context.get("in_enclave"):
            base *= model.enclave_compute_factor
        base *= 1.0 + model.memory_bound_contention * context.get("oversubscription", 0.0)
        return base

    def read_handler(self, name: str) -> str:
        """Read a named statistic (Click's read-handler interface)."""
        if name == "rule_count":
            return str(len(self.rules))
        if name == "matched":
            return str(self.packets_matched)
        return super().read_handler(name)

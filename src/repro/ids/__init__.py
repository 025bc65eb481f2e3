"""Intrusion-detection substrate: multi-pattern matching + Snort rules.

EndBox's IDPS middlebox function executes Snort rule sets with the
Aho–Corasick string-matching algorithm (§V-B, refs [40]–[42]).  This
package provides:

* :mod:`~repro.ids.aho_corasick` — the real algorithm (failure links,
  simultaneous multi-pattern scan).  Payload bytes map to byte classes
  with ``bytes.translate``; the states of trie depth at most 2 get dense
  rows over those classes, so most bytes cost one list lookup, and a
  short goto/fail excursion handles the deeper states and reports every
  match.  The whole automaton gets no table: for the community set that
  would take 5.2 MiB, memory an enclave's EPC would have to hold;
* :mod:`~repro.ids.snort_rules` — a parser for the Snort rule grammar
  subset the evaluation needs (action/proto/addresses/ports + ``msg``,
  ``content``, ``nocase``, ``sid``),
* :mod:`~repro.ids.community_rules` — a deterministic generator of a
  377-rule community-style rule set whose patterns do not occur in the
  benchmark traffic, matching the paper's setup.
"""

from repro.ids.aho_corasick import AhoCorasick
from repro.ids.snort_rules import RuleSyntaxError, SnortRule, parse_rules
from repro.ids.community_rules import community_ruleset

__all__ = [
    "AhoCorasick",
    "RuleSyntaxError",
    "SnortRule",
    "community_ruleset",
    "parse_rules",
]

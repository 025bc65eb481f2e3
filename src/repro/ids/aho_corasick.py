"""Aho–Corasick multi-pattern string matching (CACM 1975).

The automaton is built once per rule set (goto function as per-node
byte-keyed dicts, failure links via BFS, output sets merged along
failure links) and then scans payloads in a single pass, reporting every
(pattern id, end offset) occurrence.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple


class AhoCorasick:
    """A compiled multi-pattern matcher."""

    def __init__(self, patterns: Iterable[bytes], case_insensitive: bool = False) -> None:
        self.case_insensitive = case_insensitive
        self.patterns: List[bytes] = []
        # node storage: parallel lists are ~2x faster than node objects
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[List[int]] = [[]]
        for pattern in patterns:
            self.add_pattern(pattern)
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pattern(self, pattern: bytes) -> int:
        """Add a pattern; returns its id.  Must precede the first scan."""
        if not pattern:
            raise ValueError("empty pattern")
        if self.case_insensitive:
            pattern = pattern.lower()
        pattern_id = len(self.patterns)
        self.patterns.append(pattern)
        node = 0
        for byte in pattern:
            nxt = self._goto[node].get(byte)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._fail.append(0)
                self._output.append([])
                self._goto[node][byte] = nxt
            node = nxt
        self._output[node].append(pattern_id)
        self._built = False
        return pattern_id

    def _build(self) -> None:
        """Compute failure links and merge outputs (BFS over the trie)."""
        queue = deque()
        for byte, node in self._goto[0].items():
            self._fail[node] = 0
            queue.append(node)
        while queue:
            current = queue.popleft()
            for byte, node in self._goto[current].items():
                queue.append(node)
                fail = self._fail[current]
                while fail and byte not in self._goto[fail]:
                    fail = self._fail[fail]
                self._fail[node] = self._goto[fail].get(byte, 0)
                if self._fail[node] == node:
                    self._fail[node] = 0
                self._output[node] = self._output[node] + self._output[self._fail[node]]
        self._built = True

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def scan(self, data: bytes) -> List[Tuple[int, int]]:
        """All matches in ``data`` as ``(pattern_id, end_offset)`` pairs."""
        if not self._built:
            self._build()
        if self.case_insensitive:
            data = data.lower()
        goto = self._goto
        fail = self._fail
        output = self._output
        matches: List[Tuple[int, int]] = []
        node = 0
        for offset, byte in enumerate(data):
            while node and byte not in goto[node]:
                node = fail[node]
            node = goto[node].get(byte, 0)
            if output[node]:
                for pattern_id in output[node]:
                    matches.append((pattern_id, offset + 1))
        return matches

    def matches(self, data: bytes) -> bool:
        """True when any pattern occurs in ``data``."""
        return bool(self.scan(data))

    def first_match(self, data: bytes) -> Optional[int]:
        """Pattern id of the first match, or None."""
        found = self.scan(data)
        return found[0][0] if found else None

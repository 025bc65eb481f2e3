"""Aho–Corasick multi-pattern string matching (CACM 1975).

The automaton is built from the patterns on the first scan (and again on
the first scan after :meth:`AhoCorasick.add_pattern`), and then scans
payloads in a single pass, reporting every (pattern id, end offset)
occurrence.

* **Byte classes.**  ``bytes.translate`` maps each payload byte to its
  class: one class per distinct byte that occurs in some pattern, plus
  class 0 for every other byte.  The case-insensitive mode folds
  ``A``–``Z`` onto the classes of their lower case, so the payload is
  never lowered.  The trie (goto function as per-node class-keyed dicts,
  failure links via BFS, output lists merged along failure links) is
  keyed by class.
* **The dense table** has a row for each state of trie depth at most
  :data:`DENSE_DEPTH`, with the failure links folded in, so a byte costs
  one list lookup.  It is one flat list of premultiplied row offsets.
  An entry that leads deeper, or into a state with outputs, holds
  ``exit + state`` instead, so one ``>=`` test per byte catches both.
* **The sparse excursion** takes over from there: it follows goto/fail
  one byte at a time, reports each output with its end offset, and hands
  back to the table as soon as the state is shallow again.

Why the whole automaton gets no table: over the 158 byte classes of the
377-rule community set, rows for all 4,235 states would take 5.2 MiB, a
fifth of an IDPS benchmark run's peak RSS, and inside an enclave that
memory competes for the EPC.  The 503 rows of depth at most 2 take
0.6 MB, and ordinary traffic rarely leaves them.
"""

from __future__ import annotations

from collections import deque
from operator import length_hint
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: states of trie depth up to this one get a row in the dense table
DENSE_DEPTH = 2


class AhoCorasick:
    """A compiled multi-pattern matcher."""

    def __init__(self, patterns: Iterable[bytes], case_insensitive: bool = False) -> None:
        self.case_insensitive = case_insensitive
        self.patterns: List[bytes] = []
        for pattern in patterns:
            self.add_pattern(pattern)
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pattern(self, pattern: bytes) -> int:
        """Add a pattern; returns its id.  The next scan rebuilds the automaton."""
        if not pattern:
            raise ValueError("empty pattern")
        if self.case_insensitive:
            pattern = pattern.lower()
        self.patterns.append(pattern)
        self._built = False
        return len(self.patterns) - 1

    def _build(self) -> None:
        """Byte classes, the class-keyed trie and its failure links, the dense table."""
        alphabet = sorted(set().union(*self.patterns))
        first = 0 if len(alphabet) == 256 else 1  # class 0: every byte in no pattern
        width = first + len(alphabet)
        classmap = bytearray(256)
        for cls, byte in enumerate(alphabet, start=first):
            classmap[byte] = cls
        if self.case_insensitive:
            for upper in range(ord("A"), ord("Z") + 1):
                classmap[upper] = classmap[upper + 32]

        goto: List[Dict[int, int]] = [{}]
        output: List[List[int]] = [[]]
        for pattern_id, pattern in enumerate(self.patterns):
            node = 0
            for cls in pattern.translate(classmap):
                nxt = goto[node].get(cls)
                if nxt is None:
                    nxt = len(goto)
                    goto.append({})
                    output.append([])
                    goto[node][cls] = nxt
                node = nxt
            output[node].append(pattern_id)

        # failure links and merged outputs, breadth first from the root
        fail = [0] * len(goto)
        depth = [0] * len(goto)
        shallow: List[int] = []  # the states with a dense row, in BFS order
        queue = deque([0])
        while queue:
            current = queue.popleft()
            if depth[current] <= DENSE_DEPTH:
                shallow.append(current)
            for cls, node in goto[current].items():
                queue.append(node)
                depth[node] = depth[current] + 1
                if current:
                    state = fail[current]
                    while state and cls not in goto[state]:
                        state = fail[state]
                    fail[node] = goto[state].get(cls, 0)
                    output[node] = output[node] + output[fail[node]]

        # a row starts as its fail state's row, then the state's gotos overwrite it
        rows: List[Optional[int]] = [None] * len(goto)
        for index, node in enumerate(shallow):
            rows[node] = index * width
        exit_ = len(shallow) * width
        codes = [
            exit_ + node if row is None or output[node] else row for node, row in enumerate(rows)
        ]
        table = [0] * exit_
        for node in shallow:
            base = rows[node]
            if node:
                source = rows[fail[node]]
                table[base : base + width] = table[source : source + width]
            for cls, child in goto[node].items():
                table[base + cls] = codes[child]

        self._classmap = bytes(classmap)
        self._goto = goto
        self._fail = fail
        self._output = output
        self._rows = rows
        self._table = table
        self._exit = exit_
        self._built = True

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def scan(self, data: bytes) -> List[Tuple[int, int]]:
        """All matches in ``data`` as ``(pattern_id, end_offset)`` pairs."""
        if not self._built:
            self._build()
        table = self._table
        exit_ = self._exit
        size = len(data)
        matches: List[Tuple[int, int]] = []
        classes = iter(data.translate(self._classmap))
        row = 0
        for cls in classes:
            row = table[row + cls]
            if row >= exit_:
                row = self._excursion(row - exit_, classes, size, matches)
        return matches

    def _excursion(
        self, node: int, classes: Iterator[int], size: int, matches: List[Tuple[int, int]]
    ) -> int:
        """Walk goto/fail from ``node``, the state the byte just read led to.

        Reports every output on the way and returns the row offset of the
        first shallow state reached, or 0 once ``classes`` runs out.
        """
        goto = self._goto
        fail = self._fail
        output = self._output
        rows = self._rows
        end = size - length_hint(classes)
        while True:
            for pattern_id in output[node]:
                matches.append((pattern_id, end))
            row = rows[node]
            if row is not None:
                return row
            cls = next(classes, None)
            if cls is None:
                return 0
            end += 1
            while node and cls not in goto[node]:
                node = fail[node]
            node = goto[node].get(cls, 0)

    def matches(self, data: bytes) -> bool:
        """True when any pattern occurs in ``data``."""
        return bool(self.scan(data))

    def first_match(self, data: bytes) -> Optional[int]:
        """Pattern id of the first match, or None."""
        found = self.scan(data)
        return found[0][0] if found else None

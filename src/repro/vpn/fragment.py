"""Tunnel-level fragmentation (OpenVPN ``--fragment`` semantics).

Tunnel packets larger than the per-datagram budget are split into
fragments that share a ``frag_id``; the peer reassembles them in order.
Incomplete groups time out implicitly when their id is evicted from the
bounded reassembly table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple


class FragmentError(ValueError):
    """Inconsistent fragment metadata."""


class Fragmenter:
    """Splits plaintext tunnel payloads into fragment bodies."""

    def __init__(self, max_payload: int = 8900) -> None:
        if max_payload < 1:
            raise FragmentError("fragment payload must be positive")
        self.max_payload = max_payload
        self._next_frag_id = 1

    def split(self, data: bytes) -> Tuple[int, List[bytes]]:
        """Returns (frag_id, [fragment bodies])."""
        frag_id = self._next_frag_id
        self._next_frag_id = (self._next_frag_id + 1) & 0xFFFFFFFF or 1
        if len(data) <= self.max_payload:
            return frag_id, [data]
        pieces = [data[i : i + self.max_payload] for i in range(0, len(data), self.max_payload)]
        return frag_id, pieces


class Reassembler:
    """Rebuilds tunnel payloads from fragment bodies.

    ``max_count`` is the largest fragment count a group may claim.  The
    count comes off the wire, so a fragment claiming more is rejected
    before any storage is set aside for its group.
    """

    def __init__(self, max_groups: int = 256, max_count: int = 0xFFFF) -> None:
        self.max_groups = max_groups
        self.max_count = max_count
        # (session id, frag id) -> [pieces, number of pieces received]
        self._groups: "OrderedDict[Tuple[int, int], list]" = OrderedDict()
        self.completed = 0
        self.dropped_groups = 0
        self.duplicate_fragments = 0

    def add(self, session_id: int, frag_id: int, index: int, count: int, body: bytes) -> Optional[bytes]:
        """Add one fragment; returns the full payload when complete.

        Metadata is validated before any fast path: a single-fragment
        group must carry ``index == 0``, a count above :attr:`max_count`
        is refused, and a duplicate ``(frag_id, index)`` is dropped (first
        body wins) and counted in :attr:`duplicate_fragments` rather than
        silently overwriting the stored piece.
        """
        if count < 1 or index < 0 or index >= count:
            raise FragmentError("invalid fragment index/count")
        if count > self.max_count:
            raise FragmentError(f"fragment count {count} exceeds {self.max_count}")
        if count == 1:
            self.completed += 1
            return body
        key = (session_id, frag_id)
        group = self._groups.get(key)
        if group is None:
            group = [[None] * count, 0]
            self._groups[key] = group
            if len(self._groups) > self.max_groups:
                self._groups.popitem(last=False)
                self.dropped_groups += 1
        pieces: List[Optional[bytes]] = group[0]
        if len(pieces) != count:
            raise FragmentError("fragment count mismatch within group")
        if pieces[index] is not None:
            self.duplicate_fragments += 1
            return None
        pieces[index] = body
        group[1] += 1
        if group[1] < count:
            return None
        del self._groups[key]
        self.completed += 1
        return b"".join(pieces)  # type: ignore[arg-type]

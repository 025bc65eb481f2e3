"""Replay protection: the sliding-window scheme OpenVPN uses.

Packet ids increase monotonically per direction.  The window accepts the
highest id seen so far plus a 64-entry bitmap of recent ids below it;
anything older than the window or already seen is rejected — which is
what defeats the traffic-replay attack of §V-A.

Receivers use the window in two steps, as OpenVPN does: test the id with
:meth:`ReplayWindow.would_accept` before the MAC work, and record it with
:meth:`ReplayWindow.check_and_update` only once the datagram has been
authenticated.  A forged datagram therefore never moves the window.
"""

from __future__ import annotations


class ReplayWindow:
    """64-bit sliding window over packet ids."""

    def __init__(self, size: int = 64) -> None:
        if size < 1:
            raise ValueError("window size must be positive")
        self.size = size
        self._top = 0  # highest id accepted
        self._bitmap = 0  # bit i => (top - i) seen

    def check_and_update(self, packet_id: int) -> bool:
        """True if ``packet_id`` is fresh; records it when accepted."""
        if packet_id <= 0:
            return False
        if packet_id > self._top:
            shift = packet_id - self._top
            if shift >= self.size:
                self._bitmap = 1  # every older bit falls out of the window
            else:
                self._bitmap = ((self._bitmap << shift) | 1) & ((1 << self.size) - 1)
            self._top = packet_id
            return True
        offset = self._top - packet_id
        if offset >= self.size:
            return False  # too old
        if self._bitmap & (1 << offset):
            return False  # duplicate
        self._bitmap |= 1 << offset
        return True

    def would_accept(self, packet_id: int) -> bool:
        """Check without mutating: the pre-authentication test."""
        if packet_id <= 0:
            return False
        if packet_id > self._top:
            return True
        offset = self._top - packet_id
        return offset < self.size and not self._bitmap & (1 << offset)

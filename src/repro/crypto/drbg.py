"""Deterministic random byte generator (HMAC-DRBG, SP 800-90A style).

All randomness inside the reproduced system (key generation, IVs, nonces)
flows through this so that experiment runs are bit-for-bit reproducible
from a seed.
"""

from __future__ import annotations

import hmac


class HmacDrbg:
    """Simplified HMAC-DRBG over SHA-256."""

    def __init__(self, seed: bytes) -> None:
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed(seed)

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        return hmac.digest(key, data, "sha256")

    def _reseed(self, data: bytes) -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + data)
        self._value = self._hmac(self._key, self._value)
        if data:
            self._key = self._hmac(self._key, self._value + b"\x01" + data)
            self._value = self._hmac(self._key, self._value)

    def generate(self, num_bytes: int) -> bytes:
        """Produce ``num_bytes`` pseudo-random bytes."""
        if num_bytes < 0:
            raise ValueError("negative byte count")
        out = bytearray()
        while len(out) < num_bytes:
            self._value = self._hmac(self._key, self._value)
            out.extend(self._value)
        self._reseed(b"")
        return bytes(out[:num_bytes])

    def randbits(self, bits: int) -> int:
        """A random integer with at most ``bits`` bits."""
        num_bytes = (bits + 7) // 8
        value = int.from_bytes(self.generate(num_bytes), "big")
        return value >> (num_bytes * 8 - bits)

    def randint(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)`` by rejection sampling."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        bits = upper.bit_length()
        while True:
            value = self.randbits(bits)
            if value < upper:
                return value

    def child(self, label: bytes) -> "HmacDrbg":
        """Derive an independent DRBG for a sub-component."""
        return HmacDrbg(self.generate(32) + label)

"""Keyed keystream cipher for bulk simulated traffic.

``KeystreamCipher`` XORs the data with ``SHAKE128(key || nonce)``
squeezed to the data's length: one :mod:`hashlib` call per record, so
functional experiments move real bytes end to end and stay fast.  The
simulation *cost model* still charges AES-128-CBC prices for the data
channel — see ``repro.costs`` — so performance results are unaffected by
this implementation choice.
"""

from __future__ import annotations

import hashlib


class KeystreamCipher:
    """Symmetric keystream cipher: ``ct = pt XOR SHAKE128(key || nonce)``.

    Encryption and decryption are the same operation.  A fresh ``nonce``
    must be used per message (the VPN layer uses its packet id).  The
    cipher keeps no state per nonce: sender and receiver each derive
    every keystream themselves.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        # the key-absorbed XOF state is key-only work: absorbed once
        # here and ``copy()``-ed per record
        self._midstate = hashlib.shake_128(key)

    def process(self, nonce: bytes, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` under ``nonce``."""
        xof = self._midstate.copy()
        xof.update(nonce)
        size = len(data)
        # whole-buffer XOR via big integers: ~50x faster than a byte loop
        xored = int.from_bytes(data, "big") ^ int.from_bytes(xof.digest(size), "big")
        return xored.to_bytes(size, "big")

    encrypt = process
    decrypt = process

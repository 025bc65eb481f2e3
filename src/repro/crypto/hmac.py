"""HMAC-SHA256 helpers with constant-time verification.

The inner/outer pad states depend only on the key, so a per-key HMAC
object is cached and ``copy()``-ed per message instead of redoing the
key-block hashing (two SHA-256 compressions) on every call — the same
trick OpenSSL's ``HMAC_Init_ex`` reuse gives C callers.  Digests are
byte-identical to a fresh ``hmac.new`` per call.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.crypto.cachestate import HMAC_PAD_CACHE_ENTRIES, current_pads


def _keyed_state(key: bytes):
    """The cached ``(inner, outer)`` pad-state pair for ``key``.

    Raw ``hashlib`` objects rather than an ``hmac.HMAC`` instance: the
    per-message cost is then exactly two C-level hash copies, with no
    Python-object bookkeeping on top.
    """
    cache = current_pads()
    pair = cache.get(key)
    if pair is None:
        block_key = hashlib.sha256(key).digest() if len(key) > 64 else key
        block_key = block_key.ljust(64, b"\x00")
        pair = (
            hashlib.sha256(bytes(b ^ 0x36 for b in block_key)),
            hashlib.sha256(bytes(b ^ 0x5C for b in block_key)),
        )
        if len(cache) >= HMAC_PAD_CACHE_ENTRIES:
            # deterministic FIFO eviction of the oldest-inserted key
            del cache[next(iter(cache))]
        cache[bytes(key)] = pair
    return pair


def hmac_sha256(key: bytes, *chunks: bytes) -> bytes:
    """HMAC-SHA256 of the concatenation of ``chunks`` under ``key``."""
    inner_base, outer_base = _keyed_state(key)
    inner = inner_base.copy()
    for chunk in chunks:
        inner.update(chunk)
    outer = outer_base.copy()
    outer.update(inner.digest())
    return outer.digest()


def hmac_verify(key: bytes, *parts: bytes) -> bool:
    """Verify a MAC tag; tolerates truncated tags (>= 10 bytes).

    The last positional argument is the tag; everything before it is
    MAC'd as the concatenation of the chunks — so callers holding the
    authenticated data in pieces (header, payload) pass them separately
    instead of concatenating into a throwaway buffer first.
    """
    if len(parts) < 2:
        raise TypeError("hmac_verify needs at least (data, tag)")
    *chunks, tag = parts
    if len(tag) < 10:
        return False
    expected = hmac_sha256(key, *chunks)[: len(tag)]
    return _hmac.compare_digest(expected, tag)

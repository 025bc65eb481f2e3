"""Textbook RSA signatures for the certificate authority and SGX quotes.

Key generation uses Miller–Rabin with a deterministic RNG so experiments
are reproducible.  Signatures are "full-domain hash" style
(``sig = SHA256(msg) mapped into Z_n, then ** d mod n``), which is
sufficient for the protocol logic reproduced here (we need unforgeability
against the simulated adversary, not real-world strength).

Two shortcuts keep cold key generation and signing cheap without
changing a single output bit (DESIGN.md, "Cold set-up cost"): a
candidate with a small factor answers each Miller–Rabin round mod that
factor first, and private-key operations run over ``p`` and ``q`` by the
Chinese remainder theorem.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

from repro.crypto.drbg import HmacDrbg

_E = 65537

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Upper end of the small-factor screen that follows trial division.
_SCREEN_BOUND = 4096


def _primes_in(low: int, high: int) -> tuple:
    """Primes ``p`` with ``2 <= low < p <= high`` (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (high + 1)
    for i in range(2, math.isqrt(high) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    return tuple(i for i in range(low + 1, high + 1) if sieve[i])


_SCREEN_PRIMES = _primes_in(_TRIAL_PRIMES[-1], _SCREEN_BOUND)
_SCREEN_PRODUCT = math.prod(_SCREEN_PRIMES)


def _is_probable_prime(n: int, drbg: HmacDrbg, rounds: int = 20) -> bool:
    if n < 2:
        return False
    for small in _TRIAL_PRIMES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # A round that passes implies a**(n-1) == 1 (mod n), hence mod any
    # prime factor f of n.  So when n has a factor below the screen
    # bound, a round whose base fails that Fermat test mod f would fail
    # in full too: answer it mod f, after the very same DRBG draw.
    common = math.gcd(n, _SCREEN_PRODUCT)
    factor = next(f for f in _SCREEN_PRIMES if common % f == 0) if common > 1 else 0
    factor_exponent = (n - 1) % (factor - 1) if factor else 0
    for _ in range(rounds):
        a = 2 + drbg.randint(n - 4)
        if factor and pow(a % factor, factor_exponent, factor) != 1:
            return False
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, drbg: HmacDrbg) -> int:
    while True:
        candidate = drbg.randbits(bits) | (1 << (bits - 1)) | 1
        if candidate % _E == 1:
            continue
        if _is_probable_prime(candidate, drbg):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e) with signature verification."""

    n: int
    e: int = _E

    def verify(self, message: bytes, signature: int) -> bool:
        """Verify the signature; True when authentic.

        Only the canonical representative ``0 <= signature < n`` is
        accepted (RSAVP1, RFC 8017 §5.2.2), so ``signature + k*n`` does
        not verify as a second encoding of the same signature.
        """
        if not 0 <= signature < self.n:
            return False
        expected = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.n
        return pow(signature, self.e, self.n) == expected

    def encrypt_int(self, value: int) -> int:
        """Raw RSA encryption of an integer < n (used for key wrapping)."""
        if not 0 <= value < self.n:
            raise ValueError("plaintext integer out of range")
        return pow(value, self.e, self.n)

    def fingerprint(self) -> str:
        """Short hex identifier of the public key."""
        return hashlib.sha256(self.n.to_bytes((self.n.bit_length() + 7) // 8, "big")).hexdigest()[:16]


#: (bits, seed) -> (n, d, p, q).  Key generation is a pure function of
#: the deterministic seed, so repeated deployments built from the same
#: seed (every experiment sweep rebuilds its CA/IAS) reuse the
#: Miller–Rabin work instead of re-deriving byte-identical primes.
_KEYPAIR_CACHE: dict = {}
_KEYPAIR_CACHE_MAX = 256


class RsaKeyPair:
    """RSA key pair; 1024-bit by default (fast to generate, fine for a sim)."""

    def __init__(self, bits: int = 1024, seed: Optional[bytes] = None) -> None:
        seed = bytes(seed or b"rsa-default-seed")
        cached = _KEYPAIR_CACHE.get((bits, seed))
        if cached is None:
            drbg = HmacDrbg(seed)
            half = bits // 2
            p = _generate_prime(half, drbg)
            q = _generate_prime(half, drbg)
            while q == p:
                q = _generate_prime(half, drbg)
            phi = (p - 1) * (q - 1)
            cached = (p * q, pow(_E, -1, phi), p, q)
            if len(_KEYPAIR_CACHE) >= _KEYPAIR_CACHE_MAX:
                _KEYPAIR_CACHE.clear()
            _KEYPAIR_CACHE[(bits, seed)] = cached
        self.n, self.d, self._p, self._q = cached
        self._dp = self.d % (self._p - 1)
        self._dq = self.d % (self._q - 1)
        self._q_inv = pow(self._q, -1, self._p)
        self.e = _E
        self.public_key = RsaPublicKey(self.n, self.e)

    def _private_op(self, value: int) -> int:
        """``value ** d mod n`` by the Chinese remainder theorem (Garner)."""
        m_q = pow(value, self._dq, self._q)
        h = (pow(value, self._dp, self._p) - m_q) * self._q_inv % self._p
        return m_q + h * self._q

    def sign(self, message: bytes) -> int:
        """Sign SHA-256(message); returns the signature integer."""
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.n
        return self._private_op(digest)

    def decrypt_int(self, ciphertext: int) -> int:
        """Raw RSA decryption (used for key unwrapping)."""
        if not 0 <= ciphertext < self.n:
            raise ValueError("ciphertext integer out of range")
        return self._private_op(ciphertext)

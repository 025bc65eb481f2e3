"""Textbook RSA signatures for the certificate authority and SGX quotes.

Key generation uses Miller–Rabin with a deterministic RNG so experiments
are reproducible.  Signatures are "full-domain hash" style
(``sig = SHA256(msg) mapped into Z_n, then ** d mod n``), which is
sufficient for the protocol logic reproduced here (we need unforgeability
against the simulated adversary, not real-world strength).

Three shortcuts keep cold key generation and signing cheap without
changing a single output bit (DESIGN.md, "Cold set-up cost"): a
candidate with a small factor answers each Miller–Rabin round mod that
factor first, private-key operations run over ``p`` and ``q`` by the
Chinese remainder theorem, and :func:`generate_keypairs` searches a
batch of independent keys across the usable cores.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import signal
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.crypto.drbg import HmacDrbg

_E = 65537

_DEFAULT_SEED = b"rsa-default-seed"

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


def _key_material(bits: int, seed: bytes) -> tuple:
    """The prime search: ``(n, d, p, q)`` of the key ``seed`` derives."""
    drbg = HmacDrbg(seed)
    half = bits // 2
    p = _generate_prime(half, drbg)
    q = _generate_prime(half, drbg)
    while q == p:
        q = _generate_prime(half, drbg)
    return p * q, pow(_E, -1, (p - 1) * (q - 1)), p, q


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


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _search_share(bits: int, share: List[bytes], write_end: int) -> None:
    """A forked child's share: its key material, marshalled into the pipe.

    The child leaves by ``os._exit`` whatever happens, with status 0 only
    when the whole share was written.
    """
    status = 1
    try:
        payload = marshal.dumps([_key_material(bits, seed) for seed in share])
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _search(bits: int, seeds: List[bytes]) -> List[tuple]:
    """``_key_material`` of each seed, in order, split across the usable cores.

    With ``k`` shares, share ``i`` is ``seeds[i::k]``: this process
    searches share 0 and one forked child each of the others.  No child
    outlives the call, also when it raises.  A process without ``fork``,
    or with other threads (which a forked child would not have), searches
    every seed itself.
    """
    shares = min(len(seeds), _usable_cores())
    if shares <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_key_material(bits, seed) for seed in seeds]
    pids, pipes = [], []
    try:
        for index in range(1, shares):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _search_share(bits, seeds[index::shares], write_end)
            os.close(write_end)
            pids.append(pid)
            pipes.append(os.fdopen(read_end, "rb"))
        materials = [None] * len(seeds)
        materials[0::shares] = [_key_material(bits, seed) for seed in seeds[0::shares]]
        for index, pipe in enumerate(pipes, start=1):
            payload = pipe.read()
            pid = pids.pop(0)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise RuntimeError(f"key generation child {pid} exited with {code}")
            materials[index::shares] = marshal.loads(payload)
        return materials
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _materials(bits: int, seeds: Iterable[Optional[bytes]]) -> List[tuple]:
    """``(n, d, p, q)`` per seed: from the memo, or searched once per new seed.

    The result is built from the batch's own searches, so a batch larger
    than the memo still searches each seed only once.
    """
    seeds = [bytes(seed or _DEFAULT_SEED) for seed in seeds]
    found = {seed: _KEYPAIR_CACHE.get((bits, seed)) for seed in seeds}
    missing = [seed for seed, material in found.items() if material is None]
    for seed, material in zip(missing, _search(bits, missing)):
        if len(_KEYPAIR_CACHE) >= _KEYPAIR_CACHE_MAX:
            _KEYPAIR_CACHE.clear()
        _KEYPAIR_CACHE[(bits, seed)] = found[seed] = material
    return [found[seed] for seed in seeds]


def generate_keypairs(seeds: Iterable[Optional[bytes]], bits: int = 1024) -> List["RsaKeyPair"]:
    """One key pair per seed, each the one ``RsaKeyPair(bits, seed)`` gives.

    Seeds the memo does not hold are searched in interleaved shares
    across the usable cores (forked children send their share's
    ``(n, d, p, q)`` back over a pipe).  A key is a pure function of its
    seed, so the split changes no bit.
    """
    return [RsaKeyPair._from_material(material) for material in _materials(bits, seeds)]


class RsaKeyPair:
    """RSA key pair; 1024-bit by default (fast to generate, fine for a sim)."""

    def __init__(self, bits: int = 1024, seed: Optional[bytes] = None) -> None:
        self._load(_materials(bits, [seed])[0])

    @classmethod
    def _from_material(cls, material: tuple) -> "RsaKeyPair":
        key = cls.__new__(cls)
        key._load(material)
        return key

    def _load(self, material: tuple) -> None:
        self.n, self.d, self._p, self._q = material
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

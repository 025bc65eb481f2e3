"""Crypto tests: known-answer vectors + round trips + property tests."""

import hashlib
import math
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    HmacDrbg,
    KeystreamCipher,
    RsaKeyPair,
    X25519PrivateKey,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    hmac_verify,
    x25519,
)
from repro.crypto import rsa


# ----------------------------------------------------------------------
# keystream cipher
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=5000))
def test_keystream_roundtrip(data):
    cipher = KeystreamCipher(b"k" * 32)
    nonce = b"\x01\x02\x03\x04"
    assert cipher.decrypt(nonce, cipher.encrypt(nonce, data)) == data


@pytest.mark.parametrize("size", [0, 1, 64, 1500])
def test_keystream_known_answer(size):
    # the record cipher is SHAKE-128(key || nonce) XOR the data
    key = bytes(range(32))
    nonce = bytes.fromhex("00000000000000070000000000000101")
    data = bytes((7 * i + 3) & 0xFF for i in range(size))
    stream = hashlib.shake_128(key + nonce).digest(size)
    expected = bytes(d ^ k for d, k in zip(data, stream))
    cipher = KeystreamCipher(key)
    assert cipher.encrypt(nonce, data) == expected
    assert cipher.decrypt(nonce, memoryview(expected)) == data


def test_keystream_different_nonce_different_ciphertext():
    cipher = KeystreamCipher(b"k" * 32)
    data = b"A" * 64
    assert cipher.encrypt(b"n1", data) != cipher.encrypt(b"n2", data)


def test_keystream_rejects_short_key():
    with pytest.raises(ValueError):
        KeystreamCipher(b"short")


# ----------------------------------------------------------------------
# HMAC / HKDF
# ----------------------------------------------------------------------
def test_hmac_sha256_rfc4231_case_2():
    key = b"Jefe"
    data = b"what do ya want for nothing?"
    expected = bytes.fromhex(
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )
    assert hmac_sha256(key, data) == expected


def test_hmac_verify_accepts_and_rejects():
    key = b"secret-key-0123"
    tag = hmac_sha256(key, b"message")
    assert hmac_verify(key, b"message", tag)
    assert hmac_verify(key, b"message", tag[:16])  # truncated tag ok
    assert not hmac_verify(key, b"other", tag)
    assert not hmac_verify(key, b"message", b"short")


def test_hkdf_rfc5869_case_1():
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk == bytes.fromhex(
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )
    okm = hkdf_expand(prk, info, 42)
    assert okm == bytes.fromhex(
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


# ----------------------------------------------------------------------
# X25519
# ----------------------------------------------------------------------
def test_x25519_rfc7748_vector_1():
    scalar = bytes.fromhex(
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
    )
    u = bytes.fromhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
    expected = bytes.fromhex(
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    )
    assert x25519(scalar, u) == expected


def test_x25519_dh_agreement():
    alice = X25519PrivateKey(HmacDrbg(b"alice").generate(32))
    bob = X25519PrivateKey(HmacDrbg(b"bob").generate(32))
    assert alice.exchange(bob.public_bytes) == bob.exchange(alice.public_bytes)


def test_x25519_rfc7748_iterated_once():
    k = (9).to_bytes(32, "little")
    u = (9).to_bytes(32, "little")
    result = x25519(k, u)
    assert result == bytes.fromhex(
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
    )


# ----------------------------------------------------------------------
# RSA
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rsa_keys():
    return RsaKeyPair(bits=1024, seed=b"test-rsa")


def test_rsa_sign_verify(rsa_keys):
    sig = rsa_keys.sign(b"attest me")
    assert rsa_keys.public_key.verify(b"attest me", sig)
    assert not rsa_keys.public_key.verify(b"tampered", sig)
    assert not rsa_keys.public_key.verify(b"attest me", sig + 1)
    # only the canonical representative in [0, n) verifies (RFC 8017 RSAVP1)
    for shifted in (sig + rsa_keys.n, sig + 3 * rsa_keys.n, sig - rsa_keys.n):
        assert not rsa_keys.public_key.verify(b"attest me", shifted)


def test_rsa_encrypt_decrypt_int(rsa_keys):
    secret = int.from_bytes(b"symmetric-key-material-32-bytes!", "big")
    ct = rsa_keys.public_key.encrypt_int(secret)
    assert rsa_keys.decrypt_int(ct) == secret


def test_rsa_deterministic_from_seed():
    a = RsaKeyPair(bits=1024, seed=b"same")
    b = RsaKeyPair(bits=1024, seed=b"same")
    assert a.n == b.n


def test_rsa_rejects_out_of_range(rsa_keys):
    with pytest.raises(ValueError):
        rsa_keys.public_key.encrypt_int(rsa_keys.n)


def test_rsa_keys_pinned():
    # key generation and signing must reproduce these bit for bit
    pins = {
        b"test-rsa": ("41dc0304c928ab6f", 6225525327643785058),
        None: ("21eccecd8f78abda", 9465851059842690743),
        b"pin-a": ("69d378ee263c04bc", 1752317739052980736),
        b"pin-b": ("2ef81e63351e2882", 1249877811819293496),
    }
    for seed, (fingerprint, signature_low_bits) in pins.items():
        keys = RsaKeyPair(bits=1024, seed=seed)
        assert keys.public_key.fingerprint() == fingerprint
        assert keys.sign(b"attest me") % (1 << 64) == signature_low_bits


PINNED_SEEDS = [b"test-rsa", None, b"pin-a", b"pin-b"]


@pytest.mark.parametrize("cores", [1, 2])
def test_generate_keypairs_matches_pins_and_serial_keys(monkeypatch, cores):
    monkeypatch.setattr(rsa, "_usable_cores", lambda: cores)
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    batch = rsa.generate_keypairs(PINNED_SEEDS)
    assert [keys.public_key.fingerprint() for keys in batch] == [
        "41dc0304c928ab6f", "21eccecd8f78abda", "69d378ee263c04bc", "2ef81e63351e2882",
    ]
    assert batch[0].sign(b"attest me") % (1 << 64) == 6225525327643785058
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    serial = [RsaKeyPair(bits=1024, seed=seed) for seed in PINNED_SEEDS]
    assert [(k.n, k.d, k._p, k._q) for k in batch] == [(k.n, k.d, k._p, k._q) for k in serial]


def record_searches(monkeypatch):
    """Search in-process and record each seed the prime search runs for."""
    monkeypatch.setattr(rsa, "_usable_cores", lambda: 1)
    searched = []
    search = rsa._key_material

    def recorded(bits, seed):
        searched.append(seed)
        return search(bits, seed)

    monkeypatch.setattr(rsa, "_key_material", recorded)
    return searched


def test_generate_keypairs_serves_duplicates_and_memo_hits_without_search(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    held = RsaKeyPair(bits=64, seed=b"held")
    searched = record_searches(monkeypatch)
    keys = rsa.generate_keypairs([b"a", b"held", b"a", b"b"], bits=64)
    assert searched == [b"a", b"b"]
    assert keys[0].n == keys[2].n != keys[3].n
    assert keys[1].n == held.n


def test_generate_keypairs_larger_than_memo_searches_each_seed_once(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    searched = record_searches(monkeypatch)
    seeds = [b"big-%d" % index for index in range(rsa._KEYPAIR_CACHE_MAX + 8)]
    keys = rsa.generate_keypairs(seeds, bits=64)
    assert searched == seeds
    assert len(rsa._KEYPAIR_CACHE) < len(seeds)  # the memo cleared itself on the way
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    serial = [RsaKeyPair(bits=64, seed=seed) for seed in seeds]
    assert [(k.n, k.d) for k in keys] == [(k.n, k.d) for k in serial]


def test_generate_keypairs_failing_child_raises_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    monkeypatch.setattr(rsa, "_usable_cores", lambda: 3)
    parent = os.getpid()
    search = rsa._key_material

    def fail_in_child(bits, seed):
        if os.getpid() != parent:
            raise MemoryError("child ran out")
        return search(bits, seed)

    monkeypatch.setattr(rsa, "_key_material", fail_in_child)
    with pytest.raises(RuntimeError, match="exited with 1"):
        rsa.generate_keypairs([b"x", b"y", b"z", b"w"], bits=64)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert rsa._KEYPAIR_CACHE == {}


def test_generate_keypairs_forks_nothing_while_other_threads_run(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    monkeypatch.setattr(rsa, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a thread running"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    try:
        keys = rsa.generate_keypairs([b"t-1", b"t-2"], bits=64)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [k.n for k in keys] == [rsa._key_material(64, seed)[0] for seed in (b"t-1", b"t-2")]


def test_rsa_crt_private_ops_match_plain_exponentiation(rsa_keys):
    n, d = rsa_keys.n, rsa_keys.d
    p, q = rsa_keys._p, rsa_keys._q
    assert p * q == n
    values = [0, 1, p, q, n - 1] + [HmacDrbg(b"crt").randint(n) for _ in range(8)]
    for value in values:
        assert rsa_keys.decrypt_int(value) == pow(value, d, n)
    for index in range(8):
        message = b"message-%d" % index
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % n
        assert rsa_keys.sign(message) == pow(digest, d, n)


def _reference_is_probable_prime(n, drbg, rounds=20):
    """Miller–Rabin as it ran before the small-factor screen: the oracle."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + drbg.randint(n - 4)
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


def test_prime_screen_matches_reference_verdict_and_drbg_state(rsa_keys):
    source = HmacDrbg(b"mr-candidates")
    random_odd = [source.randbits(512) | (1 << 511) | 1 for _ in range(60)]
    with_screen_factor = []
    for factor in (rsa._SCREEN_PRIMES[0], 1009, rsa._SCREEN_PRIMES[-1]):
        for _ in range(3):
            cofactor = source.randbits(500) | 1
            while any(cofactor % small == 0 for small in rsa._TRIAL_PRIMES):
                cofactor += 2
            with_screen_factor.append(factor * cofactor)
    carmichael = 211 * 421 * 631  # every coprime base passes Fermat mod each factor
    small_primes = [41, 97, rsa._SCREEN_PRIMES[-1], 5]
    real_primes = [rsa_keys._p, rsa_keys._q]
    candidates = random_odd + with_screen_factor + [carmichael] + real_primes + small_primes

    screened = [n for n in candidates if math.gcd(n, rsa._SCREEN_PRODUCT) > 1]
    assert len(screened) > len(with_screen_factor) + 1  # random ones hit the screen too
    reference, screen = HmacDrbg(b"mr"), HmacDrbg(b"mr")
    for n in candidates:
        assert rsa._is_probable_prime(n, screen) == _reference_is_probable_prime(n, reference), n
        assert screen.generate(32) == reference.generate(32), n
    assert not rsa._is_probable_prime(carmichael, HmacDrbg(b"c"))
    assert rsa._is_probable_prime(rsa_keys._p, HmacDrbg(b"p"))


# ----------------------------------------------------------------------
# DRBG
# ----------------------------------------------------------------------
def test_drbg_output_pinned():
    # every key, nonce and rule set downstream is drawn from these bytes
    drbg = HmacDrbg(b"seed")
    assert drbg.generate(48).hex() == (
        "945418b8333283ae441104ff0af8ab77c755914dbcd4971f"
        "9db434098d72cc5fbcb6778fbaa207c9ede8824d282ef085"
    )
    assert drbg.child(b"x").generate(16).hex() == "9be5a15dca12be58fbd5e8bb8d53fb51"
    assert drbg.randint(10**12) == 818444044566
    assert drbg.randbits(70) == 285619876008178916068


def test_drbg_deterministic_and_child_independent():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.generate(64) == b.generate(64)
    child = a.child(b"x")
    assert child.generate(32) != a.generate(32)


def test_drbg_randint_bounds():
    drbg = HmacDrbg(b"seed")
    values = [drbg.randint(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in values)
    assert len(set(values)) > 5  # actually varies


def test_drbg_rejects_bad_args():
    drbg = HmacDrbg(b"seed")
    with pytest.raises(ValueError):
        drbg.generate(-1)
    with pytest.raises(ValueError):
        drbg.randint(0)

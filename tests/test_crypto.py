"""Crypto tests: known-answer vectors + round trips + property tests."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AES128,
    HmacDrbg,
    KeystreamCipher,
    RsaKeyPair,
    X25519PrivateKey,
    cbc_decrypt,
    cbc_encrypt,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    hmac_verify,
    sha256,
    x25519,
)
from repro.crypto import rsa
from repro.crypto.modes import pkcs7_pad, pkcs7_unpad


# ----------------------------------------------------------------------
# AES-128 known-answer tests
# ----------------------------------------------------------------------
def test_aes128_fips197_appendix_c_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    cipher = AES128(key)
    assert cipher.encrypt_block(plaintext) == expected
    assert cipher.decrypt_block(expected) == plaintext


def test_aes128_nist_ecb_kat():
    # NIST SP 800-38A F.1.1 ECB-AES128.Encrypt, first block
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
    assert AES128(key).encrypt_block(plaintext) == expected


def test_aes128_cbc_nist_vector():
    # NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, first block (no padding in
    # the vector, so compare the first 16 bytes of our padded output).
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected_first = bytes.fromhex("7649abac8119b246cee98e9b12e9197d")
    assert cbc_encrypt(key, iv, plaintext)[:16] == expected_first


def test_aes_rejects_bad_key_and_block():
    with pytest.raises(ValueError):
        AES128(b"short")
    with pytest.raises(ValueError):
        AES128(b"k" * 16).encrypt_block(b"tiny")


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=200), st.binary(min_size=16, max_size=16))
def test_cbc_roundtrip(plaintext, key):
    iv = sha256(key)[:16]
    assert cbc_decrypt(key, iv, cbc_encrypt(key, iv, plaintext)) == plaintext


def test_cbc_tampered_ciphertext_fails_padding_often():
    key = b"0123456789abcdef"
    iv = b"\x00" * 16
    ct = bytearray(cbc_encrypt(key, iv, b"hello world, this is a test"))
    ct[-1] ^= 0xFF
    with pytest.raises(ValueError):
        cbc_decrypt(key, iv, bytes(ct))


def test_pkcs7_pad_unpad():
    assert pkcs7_pad(b"") == b"\x10" * 16
    assert pkcs7_unpad(pkcs7_pad(b"abc")) == b"abc"
    with pytest.raises(ValueError):
        pkcs7_unpad(b"\x00" * 16)


# ----------------------------------------------------------------------
# keystream cipher
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=5000))
def test_keystream_roundtrip(data):
    cipher = KeystreamCipher(b"k" * 32)
    nonce = b"\x01\x02\x03\x04"
    assert cipher.decrypt(nonce, cipher.encrypt(nonce, data)) == data


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

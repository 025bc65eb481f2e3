"""Cryptographic primitives used by the VPN, TLS library and SGX model.

Everything here is implemented from scratch (pure Python) or on top of
:mod:`hashlib`/:mod:`hmac` from the standard library — no third-party
crypto dependencies exist in this environment.

The one symmetric cipher is :class:`~repro.crypto.stream.KeystreamCipher`,
a keyed keystream cipher (one SHAKE-128 call per record).  It encrypts
VPN data-channel and TLS records, sealed enclave data and configuration
files; the *cost model* charges AES-128-CBC prices for the data channel,
matching the paper's OpenVPN setup.

Security note: this code exists to reproduce a systems paper inside a
simulator.  It is *not* hardened (no constant-time guarantees) and must
not be used to protect real data.
"""

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.hkdf import hkdf_expand, hkdf_extract, hkdf_expand_label
from repro.crypto.hmac import hmac_sha256, hmac_verify
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.stream import KeystreamCipher
from repro.crypto.x25519 import X25519PrivateKey, x25519

__all__ = [
    "HmacDrbg",
    "KeystreamCipher",
    "RsaKeyPair",
    "RsaPublicKey",
    "X25519PrivateKey",
    "hkdf_expand",
    "hkdf_expand_label",
    "hkdf_extract",
    "hmac_sha256",
    "hmac_verify",
    "sha256",
    "x25519",
]

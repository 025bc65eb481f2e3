"""Control-channel authentication: certificates + mutual key exchange.

Certificates bind a subject name to a static X25519 public key and are
signed by the deployment CA (an RSA key pair); the CA public key is what
EndBox bakes into the enclave image (§III-C), so clients can verify the
server and servers only accept certified clients.

The key exchange is a Noise-IK-style pattern: both sides contribute an
ephemeral key, and the session secret mixes three Diffie-Hellman results
(ephemeral-ephemeral, client-static-to-server-ephemeral and
client-ephemeral-to-server-static), so both parties prove possession of
their certified static keys through key confirmation — no per-handshake
signatures are needed, which keeps 60-client experiments fast.
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.hkdf import hkdf_expand, hkdf_extract
from repro.crypto.hmac import hmac_sha256
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.x25519 import X25519PrivateKey


class HandshakeError(RuntimeError):
    """Authentication failure during connection establishment."""


@dataclass(frozen=True)
class Certificate:
    """A CA-signed binding of subject -> static X25519 public key."""

    subject: str
    public_key: bytes  # X25519 static public key
    not_after_version: int  # certificates can be scoped to config epochs
    signature: int

    def signed_body(self) -> bytes:
        """The byte string the CA signature covers."""
        return self.subject.encode() + self.public_key + str(self.not_after_version).encode()

    def verify(self, ca_public_key: RsaPublicKey) -> bool:
        """Verify the signature; True when authentic."""
        return ca_public_key.verify(self.signed_body(), self.signature)

    def serialize(self) -> bytes:
        """Serialize to wire bytes."""
        return json.dumps(
            {
                "subject": self.subject,
                "public_key": self.public_key.hex(),
                "not_after_version": self.not_after_version,
                "signature": str(self.signature),
            }
        ).encode()

    @classmethod
    def parse(cls, data: bytes) -> "Certificate":
        try:
            obj = json.loads(data.decode())
            return cls(
                subject=obj["subject"],
                public_key=bytes.fromhex(obj["public_key"]),
                not_after_version=int(obj["not_after_version"]),
                signature=int(obj["signature"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise HandshakeError(f"malformed certificate: {exc}") from exc


def issue_certificate(
    ca: RsaKeyPair, subject: str, public_key: bytes, not_after_version: int = 1 << 62
) -> Certificate:
    """CA operation: sign a subject/static-key binding."""
    unsigned = Certificate(subject, public_key, not_after_version, 0)
    return Certificate(subject, public_key, not_after_version, ca.sign(unsigned.signed_body()))


@dataclass(repr=False)
class SessionSecrets:
    """Directional data-channel keys derived from the handshake."""

    client_cipher: bytes
    client_hmac: bytes
    server_cipher: bytes
    server_hmac: bytes
    session_id: int
    confirmation: bytes

    def __repr__(self) -> str:
        # never the raw channel keys: a digest over all four directional
        # keys identifies the session without exposing a single key byte
        fingerprint = sha256(
            self.client_cipher + self.client_hmac + self.server_cipher + self.server_hmac
        ).hex()[:12]
        return (
            f"SessionSecrets(session_id={self.session_id}, "
            f"keys=<4x16B sha256:{fingerprint}>, "
            f"confirmation=<{len(self.confirmation)}B>)"
        )


def _derive(shared_material: bytes, transcript: bytes) -> SessionSecrets:
    prk = hkdf_extract(transcript, shared_material)
    keys = hkdf_expand(prk, b"endbox-vpn-data", 16 * 4 + 8 + 32)
    return SessionSecrets(
        client_cipher=keys[0:16],
        client_hmac=keys[16:32],
        server_cipher=keys[32:48],
        server_hmac=keys[48:64],
        session_id=int.from_bytes(keys[64:72], "big") or 1,
        confirmation=keys[72:104],
    )


class ClientKeyExchange:
    """Client side of the control-channel handshake."""

    def __init__(
        self,
        identity_key: X25519PrivateKey,
        certificate: Certificate,
        ca_public_key: RsaPublicKey,
        drbg: HmacDrbg,
        server_name: str = "",
    ) -> None:
        self.identity_key = identity_key
        self.certificate = certificate
        self.ca_public_key = ca_public_key
        self.server_name = server_name
        self._ephemeral = X25519PrivateKey(drbg.generate(32))
        self._hello: Optional[bytes] = None
        self.secrets: Optional[SessionSecrets] = None

    def hello(self, config_version: int = 0) -> bytes:
        """Serialized client hello carrying certificate and ephemeral key."""
        payload = json.dumps(
            {
                "certificate": self.certificate.serialize().decode(),
                "ephemeral": self._ephemeral.public_bytes.hex(),
                "config_version": config_version,
            }
        ).encode()
        self._hello = payload
        return payload

    def process_reply(self, reply: bytes) -> None:
        """Verify the server reply and derive session keys."""
        try:
            obj = json.loads(reply.decode())
            server_cert = Certificate.parse(obj["certificate"].encode())
            server_ephemeral = bytes.fromhex(obj["ephemeral"])
            confirmation = bytes.fromhex(obj["confirmation"])
        except (ValueError, KeyError, TypeError) as exc:
            raise HandshakeError(f"malformed server reply: {exc}") from exc
        if not server_cert.verify(self.ca_public_key):
            raise HandshakeError("server certificate not signed by the deployment CA")
        if self.server_name and server_cert.subject != self.server_name:
            raise HandshakeError(
                f"server identity mismatch: expected {self.server_name!r}, got {server_cert.subject!r}"
            )
        dh_ee = self._ephemeral.exchange(server_ephemeral)
        dh_se = self.identity_key.exchange(server_ephemeral)
        dh_es = self._ephemeral.exchange(server_cert.public_key)
        transcript = sha256(self._hello or b"", server_cert.serialize(), server_ephemeral)
        self.secrets = _derive(dh_ee + dh_se + dh_es, transcript)
        expected = hmac_sha256(self.secrets.confirmation, b"server-confirm")
        if not hmac.compare_digest(confirmation, expected):
            raise HandshakeError("server key confirmation failed")


class ServerKeyExchange:
    """Server side: verifies the client certificate, derives keys."""

    def __init__(
        self,
        identity_key: X25519PrivateKey,
        certificate: Certificate,
        ca_public_key: RsaPublicKey,
        drbg: HmacDrbg,
    ) -> None:
        self.identity_key = identity_key
        self.certificate = certificate
        self.ca_public_key = ca_public_key
        self._drbg = drbg

    def process_hello(self, hello: bytes) -> Tuple[bytes, SessionSecrets, Certificate, int]:
        """Returns (reply bytes, secrets, client certificate, client version)."""
        try:
            obj = json.loads(hello.decode())
            client_cert = Certificate.parse(obj["certificate"].encode())
            client_ephemeral = bytes.fromhex(obj["ephemeral"])
            client_version = int(obj.get("config_version", 0))
        except (ValueError, KeyError, TypeError) as exc:
            raise HandshakeError(f"malformed client hello: {exc}") from exc
        if not client_cert.verify(self.ca_public_key):
            raise HandshakeError("client certificate not signed by the deployment CA")
        ephemeral = X25519PrivateKey(self._drbg.generate(32))
        dh_ee = ephemeral.exchange(client_ephemeral)
        dh_se = ephemeral.exchange(client_cert.public_key)
        dh_es = self.identity_key.exchange(client_ephemeral)
        transcript = sha256(hello, self.certificate.serialize(), ephemeral.public_bytes)
        secrets = _derive(dh_ee + dh_se + dh_es, transcript)
        reply = json.dumps(
            {
                "certificate": self.certificate.serialize().decode(),
                "ephemeral": ephemeral.public_bytes.hex(),
                "confirmation": hmac_sha256(secrets.confirmation, b"server-confirm").hex(),
            }
        ).encode()
        return reply, secrets, client_cert, client_version

"""TLS handshake: X25519 key agreement + HKDF schedule + Finished MACs.

The handshake follows the TLS 1.3 structure (one round trip)::

    ClientHello  { random, x25519 share, offered versions, cipher suites }
    ServerHello  { random, x25519 share, chosen version, chosen suite }
    Finished     (both directions, HMAC over the transcript)

Both sides derive per-direction traffic secrets from the ECDH output and
the transcript hash, so any tampering with negotiation (e.g. a downgrade
of the offered version list) changes the transcript and breaks the
Finished verification — the property the paper's downgrade-attack
defence relies on (§V-A).
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.hkdf import hkdf_expand_label, hkdf_extract
from repro.crypto.hmac import hmac_sha256
from repro.crypto.x25519 import X25519PrivateKey


class TlsAlert(RuntimeError):
    """Fatal handshake failure."""


class TlsVersion:
    """Supported TLS protocol versions and their wire codes."""
    TLS12 = "TLS1.2"
    TLS13 = "TLS1.3"
    ALL = (TLS13, TLS12)
    WIRE = {TLS12: 0x0303, TLS13: 0x0304}


SUPPORTED_SUITES = ("AES128-SHA256", "CHACHA20-SHA256")


@dataclass
class ClientHello:
    random: bytes
    public_key: bytes
    versions: List[str]
    suites: List[str]
    server_name: str = ""

    def serialize(self) -> bytes:
        """Serialize to wire bytes."""
        return json.dumps(
            {
                "random": self.random.hex(),
                "public_key": self.public_key.hex(),
                "versions": self.versions,
                "suites": self.suites,
                "server_name": self.server_name,
            }
        ).encode()

    @classmethod
    def parse(cls, data: bytes) -> "ClientHello":
        try:
            obj = json.loads(data.decode())
            return cls(
                random=bytes.fromhex(obj["random"]),
                public_key=bytes.fromhex(obj["public_key"]),
                versions=list(obj["versions"]),
                suites=list(obj["suites"]),
                server_name=obj.get("server_name", ""),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise TlsAlert(f"malformed ClientHello: {exc}") from exc


@dataclass
class ServerHello:
    random: bytes
    public_key: bytes
    version: str
    suite: str

    def serialize(self) -> bytes:
        """Serialize to wire bytes."""
        return json.dumps(
            {
                "random": self.random.hex(),
                "public_key": self.public_key.hex(),
                "version": self.version,
                "suite": self.suite,
            }
        ).encode()

    @classmethod
    def parse(cls, data: bytes) -> "ServerHello":
        try:
            obj = json.loads(data.decode())
            return cls(
                random=bytes.fromhex(obj["random"]),
                public_key=bytes.fromhex(obj["public_key"]),
                version=obj["version"],
                suite=obj["suite"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise TlsAlert(f"malformed ServerHello: {exc}") from exc


@dataclass(repr=False)
class SessionKeys:
    """Both directions' traffic secrets plus identifiers."""

    client_write: bytes
    server_write: bytes
    version: str
    suite: str
    transcript: bytes

    def __repr__(self) -> str:
        # never the raw traffic secrets: lengths + digests only, so
        # debug output and assertion messages cannot leak key bytes
        return (
            f"SessionKeys(version={self.version!r}, suite={self.suite!r}, "
            f"client_write=<{len(self.client_write)}B "
            f"sha256:{sha256(self.client_write).hex()[:12]}>, "
            f"server_write=<{len(self.server_write)}B "
            f"sha256:{sha256(self.server_write).hex()[:12]}>, "
            f"transcript=sha256:{sha256(self.transcript).hex()[:12]})"
        )

    def finished_mac(self, role: str) -> bytes:
        """The Finished MAC for the given role."""
        key = self.client_write if role == "client" else self.server_write
        return hmac_sha256(key, b"finished", self.transcript)


def derive_session_keys(
    shared_secret: bytes, client_hello: ClientHello, server_hello: ServerHello
) -> SessionKeys:
    """The HKDF key schedule over the handshake transcript."""
    transcript = sha256(client_hello.serialize(), server_hello.serialize())
    master = hkdf_extract(transcript, shared_secret)
    return SessionKeys(
        client_write=hkdf_expand_label(master, "c ap traffic", transcript, 48),
        server_write=hkdf_expand_label(master, "s ap traffic", transcript, 48),
        version=server_hello.version,
        suite=server_hello.suite,
        transcript=transcript,
    )


class ClientHandshake:
    """Client-side handshake state machine (two steps)."""

    def __init__(
        self,
        drbg: HmacDrbg,
        versions: Optional[List[str]] = None,
        suites: Optional[List[str]] = None,
        server_name: str = "",
    ) -> None:
        self._key = X25519PrivateKey(drbg.generate(32))
        self.offered_versions = list(versions or TlsVersion.ALL)
        self.offered_suites = list(suites or SUPPORTED_SUITES)
        self.hello = ClientHello(
            random=drbg.generate(32),
            public_key=self._key.public_bytes,
            versions=self.offered_versions,
            suites=self.offered_suites,
            server_name=server_name,
        )
        self.keys: Optional[SessionKeys] = None

    def client_hello(self) -> bytes:
        """Serialized ClientHello bytes."""
        return self.hello.serialize()

    def process_server_hello(self, data: bytes) -> bytes:
        """Derive keys; returns the client Finished MAC."""
        server_hello = ServerHello.parse(data)
        if server_hello.version not in self.offered_versions:
            raise TlsAlert(f"server chose unoffered version {server_hello.version}")
        if server_hello.suite not in self.offered_suites:
            raise TlsAlert(f"server chose unoffered suite {server_hello.suite}")
        shared = self._key.exchange(server_hello.public_key)
        self.keys = derive_session_keys(shared, self.hello, server_hello)
        return self.keys.finished_mac("client")

    def verify_server_finished(self, mac: bytes) -> None:
        """Check the server Finished MAC; raises TlsAlert on mismatch."""
        if self.keys is None:
            raise TlsAlert("handshake not complete")
        if not hmac.compare_digest(mac, self.keys.finished_mac("server")):
            raise TlsAlert("server Finished verification failed (transcript tampered?)")


class ServerHandshake:
    """Server-side handshake state machine."""

    def __init__(
        self,
        drbg: HmacDrbg,
        min_version: str = TlsVersion.TLS12,
        suites: Optional[List[str]] = None,
    ) -> None:
        self._drbg = drbg
        self.min_version = min_version
        self.suites = list(suites or SUPPORTED_SUITES)
        self.keys: Optional[SessionKeys] = None

    def _acceptable_versions(self) -> List[str]:
        ordered = list(TlsVersion.ALL)  # best first
        minimum_index = ordered.index(self.min_version)
        return ordered[: minimum_index + 1]

    def process_client_hello(self, data: bytes) -> Tuple[bytes, bytes]:
        """Returns (ServerHello bytes, server Finished MAC)."""
        client_hello = ClientHello.parse(data)
        acceptable = [v for v in self._acceptable_versions() if v in client_hello.versions]
        if not acceptable:
            raise TlsAlert(
                f"no acceptable TLS version (client offered {client_hello.versions}, "
                f"server requires >= {self.min_version})"
            )
        suite = next((s for s in self.suites if s in client_hello.suites), None)
        if suite is None:
            raise TlsAlert("no common cipher suite")
        key = X25519PrivateKey(self._drbg.generate(32))
        server_hello = ServerHello(
            random=self._drbg.generate(32),
            public_key=key.public_bytes,
            version=acceptable[0],
            suite=suite,
        )
        shared = key.exchange(client_hello.public_key)
        self.keys = derive_session_keys(shared, client_hello, server_hello)
        return server_hello.serialize(), self.keys.finished_mac("server")

    def verify_client_finished(self, mac: bytes) -> None:
        """Check the client Finished MAC; raises TlsAlert on mismatch."""
        if self.keys is None:
            raise TlsAlert("handshake not complete")
        if not hmac.compare_digest(mac, self.keys.finished_mac("client")):
            raise TlsAlert("client Finished verification failed")

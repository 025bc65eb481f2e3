"""The configuration distribution pipeline (Fig 5).

Administrator side
------------------
:class:`ConfigPublisher` turns a Click configuration (+ optional IDPS
rule set) into a signed, optionally encrypted :class:`ConfigBundle`
(enterprise: encrypted so employees cannot read IDPS rules; ISP: plain
so customers can inspect them, §III-E), uploads it to the
:class:`ConfigFileServer` (step 1), and triggers the announcement at the
VPN server (step 2), which starts the grace timer (step 3) and begins
advertising the version in pings (step 4).

Client side lives in :class:`~repro.core.endbox_client.EndBoxClient`:
steps 5-9 (notice, fetch, decrypt inside the enclave, hot-swap,
confirm).  The version number is embedded in the signed bundle, so
replaying an old configuration fails the enclave's monotonicity check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.ca import CertificateAuthority
from repro.crypto.stream import KeystreamCipher
from repro.http.server import HttpServer
from repro.netsim.host import Host


@dataclass
class UpdateTimings:
    """Per-update phase timings, the rows of Table II."""

    version: int
    fetch_s: float
    decrypt_s: float
    hotswap_s: float

    @property
    def total_s(self) -> float:
        return self.fetch_s + self.decrypt_s + self.hotswap_s


@dataclass
class ConfigBundle:
    """A distributable configuration: signed envelope + payload."""

    version: int
    encrypted: bool
    blob: bytes


class ConfigPublisher:
    """Administrator tooling: sign/encrypt and publish configurations."""

    def __init__(self, ca: CertificateAuthority) -> None:
        self.ca = ca

    def build_bundle(
        self, version: int, click_config: str, ruleset_text: str = "", encrypt: bool = True
    ) -> ConfigBundle:
        """Sign (and optionally encrypt) a configuration bundle."""
        payload = json.dumps({"click_config": click_config, "ruleset": ruleset_text}).encode()
        if encrypt:
            payload = KeystreamCipher(self.ca.shared_config_key).encrypt(
                str(version).encode(), payload
            )
        signature = self.ca.sign_config(version, payload, encrypt)
        blob = json.dumps(
            {
                "version": version,
                "encrypted": encrypt,
                "payload": payload.hex(),
                "signature": str(signature),
            }
        ).encode()
        return ConfigBundle(version=version, encrypted=encrypt, blob=blob)

    def publish(
        self,
        bundle: ConfigBundle,
        file_server: "ConfigFileServer",
        vpn_server,
        grace_period_s: float,
    ) -> None:
        """Fig 5 steps 1-2: upload, then trigger the announcement."""
        file_server.store(bundle)
        vpn_server.announce_config(bundle.version, grace_period_s)


class ConfigFileServer:
    """The trusted, publicly reachable configuration file server.

    Serves bundles over HTTP at ``/configs/v<version>``; each request
    costs the configured service time (part of Table II's fetch phase).
    """

    def __init__(self, host: Host, port: int = 8088, cost_model=None) -> None:
        self.host = host
        self.port = port
        self.http = HttpServer(host, port=port, cost_model=cost_model)
        if cost_model is not None:
            self.http.model = cost_model.scaled(http_server_service=cost_model.config_server_service)
        self.bundles: Dict[int, ConfigBundle] = {}
        self.latest_version: Optional[int] = None
        # recovery endpoint: a client locked out after its grace period
        # knows only that its version is old, not the current number
        self.http.add_resource("/configs/latest", self._latest_blob)

    def start(self) -> None:
        """Start the component's simulation processes."""
        self.http.start()

    def store(self, bundle: ConfigBundle) -> None:
        """Publish a bundle at /configs/v<version> (and /configs/latest)."""
        self.bundles[bundle.version] = bundle
        self.latest_version = max(self.latest_version or 0, bundle.version)
        self.http.add_resource(f"/configs/v{bundle.version}", bundle.blob)

    def _latest_blob(self) -> bytes:
        """Provider for ``/configs/latest``; empty before any publish."""
        if self.latest_version is None:
            return b""
        return self.bundles[self.latest_version].blob

    def set_down(self, down: bool) -> None:
        """Fault injection: toggle an outage window (requests answer 503)."""
        self.http.suspended = bool(down)

"""SGX attestation: reports, quotes, the Quoting Enclave, and a simulated
Intel Attestation Service (IAS).

This reproduces the machinery EndBox's Fig 4 flow relies on:

* a *report* binds 64 bytes of user data (EndBox puts the enclave's fresh
  public key there) to the enclave's MRENCLAVE on a specific platform,
* the *Quoting Enclave* converts reports into *quotes* signed with a
  platform attestation key that was provisioned by "Intel" (the IAS
  instance) at manufacturing time,
* the *IAS* verifies quote signatures and answers "is this a genuine SGX
  platform running enclave X?" with a signed attestation verification
  report.

Forgery resistance holds inside the simulation: the platform keys are
real RSA keys, quotes over tampered enclaves carry the wrong MRENCLAVE,
and quotes from non-provisioned platforms fail IAS verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypairs
from repro.sgx.enclave import Enclave, EnclaveMode
from repro.sgx.epc import EnclavePageCache


class AttestationError(RuntimeError):
    """Verification failure anywhere in the attestation chain."""


@dataclass(frozen=True)
class Report:
    """A local attestation report (EREPORT output)."""

    mrenclave: bytes
    platform_id: str
    report_data: bytes  # 64 bytes of user data
    debug: bool = False

    def body(self) -> bytes:
        """The byte string covered by signatures/MACs."""
        return self.mrenclave + self.platform_id.encode() + self.report_data


@dataclass(frozen=True)
class Quote:
    """A remotely verifiable quote (report + QE signature)."""

    report: Report
    signature: int
    qe_identity: str

    def body(self) -> bytes:
        """The byte string covered by signatures/MACs."""
        return self.report.body() + self.qe_identity.encode()


class IntelAttestationService:
    """The web-based verification service (one global instance per sim).

    Also plays Intel's provisioning role: platforms registered here hold
    attestation keys whose public halves the service knows.
    """

    def __init__(self, seed: bytes = b"ias-root") -> None:
        self._drbg = HmacDrbg(seed)
        self.signing_key = RsaKeyPair(seed=self._drbg.generate(32))
        self._platform_keys: Dict[str, RsaPublicKey] = {}
        self._revoked: Set[str] = set()
        #: numbers the platforms built without a name, so their ids (and
        #: with them their keys) depend only on this service's history
        self._unnamed_platforms = itertools.count(1)
        self.requests_served = 0

    # -- provisioning ---------------------------------------------------
    def provision_platform(self, platform_id: str) -> RsaKeyPair:
        """Fuse an attestation key for a new platform (manufacturing)."""
        return self.provision_platforms([platform_id])[0]

    def provision_platforms(self, platform_ids: Iterable[str]) -> List[RsaKeyPair]:
        """Fuse attestation keys for several new platforms in one batch.

        Seeds are drawn in order, exactly as one :meth:`provision_platform`
        call per id would draw them, and the keys are searched in one
        :func:`~repro.crypto.rsa.generate_keypairs` call across the cores.
        """
        platform_ids = list(platform_ids)
        seeds = [self._drbg.generate(32) + platform_id.encode() for platform_id in platform_ids]
        keys = generate_keypairs(seeds)
        for platform_id, key in zip(platform_ids, keys):
            self._platform_keys[platform_id] = key.public_key
        return keys

    def revoke_platform(self, platform_id: str) -> None:
        """Blacklist a platform id."""
        self._revoked.add(platform_id)

    # -- verification ---------------------------------------------------
    def verify_quote(self, quote: Quote) -> "AttestationVerificationReport":
        """Check a quote; returns a signed verification report."""
        self.requests_served += 1
        platform_key = self._platform_keys.get(quote.report.platform_id)
        if platform_key is None:
            return self._verdict(quote, ok=False, reason="unknown platform")
        if quote.report.platform_id in self._revoked:
            return self._verdict(quote, ok=False, reason="platform revoked")
        if not platform_key.verify(quote.body(), quote.signature):
            return self._verdict(quote, ok=False, reason="bad quote signature")
        return self._verdict(quote, ok=True, reason="OK")

    def _verdict(self, quote: Quote, ok: bool, reason: str) -> "AttestationVerificationReport":
        body = quote.report.body() + (b"\x01" if ok else b"\x00") + reason.encode()
        return AttestationVerificationReport(
            quote=quote, ok=ok, reason=reason, signature=self.signing_key.sign(body)
        )


@dataclass(frozen=True)
class AttestationVerificationReport:
    """IAS's signed answer; relying parties check ``signature``."""

    quote: Quote
    ok: bool
    reason: str
    signature: int

    def verify(self, ias_public_key: RsaPublicKey) -> bool:
        """Verify the signature; True when authentic."""
        body = self.quote.report.body() + (b"\x01" if self.ok else b"\x00") + self.reason.encode()
        return ias_public_key.verify(body, self.signature)


class QuotingEnclave:
    """The special enclave that signs reports into quotes."""

    def __init__(self, platform: "SgxPlatform", attestation_key: RsaKeyPair) -> None:
        self.platform = platform
        self._key = attestation_key
        self.identity = f"qe:{platform.platform_id}"

    def quote(self, report: Report) -> Quote:
        """Sign a report into a remotely verifiable quote."""
        if report.platform_id != self.platform.platform_id:
            raise AttestationError("report was generated on a different platform")
        unsigned = Quote(report=report, signature=0, qe_identity=self.identity)
        return Quote(report=report, signature=self._key.sign(unsigned.body()), qe_identity=self.identity)


class SgxPlatform:
    """One SGX machine: EPC + platform identity + local report key.

    ``create_report`` is only callable for enclaves actually running on
    this platform, so an adversary cannot mint reports for enclaves it
    does not run — the property remote attestation depends on.

    ``attestation_key`` is a key ``ias`` already provisioned for ``name``
    (:meth:`IntelAttestationService.provision_platforms`); without one,
    the platform has ``ias`` provision its own.
    """

    def __init__(
        self,
        ias: IntelAttestationService,
        name: Optional[str] = None,
        attestation_key: Optional[RsaKeyPair] = None,
    ) -> None:
        self.platform_id = name or f"sgx-platform-{next(ias._unnamed_platforms)}"
        self.epc = EnclavePageCache()
        self.ias = ias
        if attestation_key is None:
            attestation_key = ias.provision_platform(self.platform_id)
        self.quoting_enclave = QuotingEnclave(self, attestation_key)
        # keyed by object identity: enclave ids are per-EPC sequences,
        # so two enclaves on different platforms may share an id string
        self._resident: Set[int] = set()
        self._report_key = sha256(self.platform_id.encode(), b"report-key")

    def load(self, enclave: Enclave) -> None:
        """Record that ``enclave`` runs on this platform."""
        self._resident.add(id(enclave))

    def create_report(self, enclave: Enclave, user_data: bytes) -> Report:
        """EREPORT: bind ``user_data`` to the enclave's measurement."""
        if id(enclave) not in self._resident:
            raise AttestationError(f"{enclave.enclave_id} is not resident on {self.platform_id}")
        if enclave.destroyed:
            raise AttestationError("cannot report a destroyed enclave")
        return Report(
            mrenclave=enclave.mrenclave,
            platform_id=self.platform_id,
            report_data=enclave.report_data_binding(user_data),
            debug=enclave.mode is EnclaveMode.SIMULATION,
        )

    # ------------------------------------------------------------------
    # local attestation (EREPORT targeted at a sibling enclave)
    # ------------------------------------------------------------------
    def create_local_report(self, reporter: Enclave, user_data: bytes) -> Tuple[Report, bytes]:
        """EREPORT for local attestation: report + platform-keyed MAC.

        The MAC key is fused into this platform's CPU; only enclaves
        running *here* can verify it, which is exactly local
        attestation's guarantee.
        """
        report = self.create_report(reporter, user_data)
        mac = sha256(self._report_key, report.body())
        return report, mac

    def verify_local_report(self, verifier: Enclave, report: Report, mac: bytes) -> bool:
        """A resident enclave checks a sibling's local report."""
        if id(verifier) not in self._resident or verifier.destroyed:
            return False
        if report.platform_id != self.platform_id:
            return False  # reports never verify across machines
        return sha256(self._report_key, report.body()) == mac

    def local_attest(self, reporter: Enclave, verifier: Enclave, user_data: bytes) -> bool:
        """Convenience: full local attestation between two enclaves."""
        if {id(reporter), id(verifier)} - self._resident:
            return False
        report, mac = self.create_local_report(reporter, user_data)
        return self.verify_local_report(verifier, report, mac)

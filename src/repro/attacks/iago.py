"""Interface (Iago-style) attacks on the enclave boundary (§IV-B, §V-A).

The machine owner controls all code outside the enclave, including what
crosses the ecall/ocall boundary.  The paper hardens every crossing with
sanity checks; these attacks feed hostile arguments and hostile ocall
return values and verify the checks fire *before* trusted code consumes
the input.
"""

from __future__ import annotations

from typing import List

from repro.attacks.common import AttackOutcome, AttackReport
from repro.click import configs as click_configs
from repro.core.ca import CertificateAuthority
from repro.core.enclave_app import EndBoxEnclave, build_endbox_image
from repro.core.provisioning import provision_client
from repro.costs import default_cost_model
from repro.sgx.attestation import IntelAttestationService, SgxPlatform
from repro.sgx.gateway import InterfaceViolation
from repro.sim import Simulator


def _provisioned_enclave(seed: bytes):
    ias = IntelAttestationService(seed=seed)
    ca = CertificateAuthority(ias, seed=seed + b"ca")
    model = default_cost_model()
    image = build_endbox_image(ca.public_key, model)
    ca.whitelist_measurement(image.measure())
    platform = SgxPlatform(ias)
    endbox = EndBoxEnclave.create(image, platform)
    provision_client(endbox, platform, ca)
    config = click_configs.nop_config()
    endbox.gateway.ecall("initialize", config, "", sim=Simulator())
    return endbox


def run_iago_attacks(seed: bytes = b"atk-iago") -> List[AttackReport]:
    """Mount the interface (Iago) attacks; returns reports."""
    endbox = _provisioned_enclave(seed)
    gateway = endbox.gateway
    reports = []

    hostile_ecalls = [
        ("process_packet", (b"\x00" * 64, "egress", "encrypt+mac", True), "non-packet buffer"),
        ("process_packet", (None, "egress", "encrypt+mac", True), "null pointer"),
        ("process_packet", (object(), "sideways", "encrypt+mac", True), "bogus direction enum"),
        ("apply_config", (12345,), "non-buffer config blob"),
        ("apply_config", (b"x" * (1 << 23),), "oversized config blob"),
        ("provision", (b"{}", b"short"), "undersized wrapped key"),
    ]
    for name, args, description in hostile_ecalls:
        try:
            gateway.ecall(name, *args)
            outcome = AttackOutcome.SUCCEEDED
            details = "handler executed on hostile input"
        except InterfaceViolation as exc:
            outcome = AttackOutcome.DEFEATED
            details = str(exc)
        except Exception as exc:  # reached the handler: the check failed
            outcome = AttackOutcome.SUCCEEDED
            details = f"reached trusted code: {exc!r}"
        reports.append(
            AttackReport(
                name=f"iago: ecall {name} with {description}",
                goal="corrupt enclave state through the call interface",
                outcome=outcome,
                defence="per-ecall argument sanity checks at the boundary",
                details=details,
            )
        )

    # hostile ocall return value (e.g. a lying untrusted file read)
    gateway.register_ocall(
        "read_config_file", lambda: 42, validator=lambda r: isinstance(r, bytes) and len(r) < 1 << 20
    )
    try:
        gateway.ocall("read_config_file")
        outcome = AttackOutcome.SUCCEEDED
        details = "lying ocall return accepted"
    except InterfaceViolation as exc:
        outcome = AttackOutcome.DEFEATED
        details = str(exc)
    reports.append(
        AttackReport(
            name="iago: hostile ocall return value",
            goal="smuggle a bad buffer into the enclave via an ocall",
            outcome=outcome,
            defence="ocall return-value validation before re-entry",
            details=details,
        )
    )
    return reports

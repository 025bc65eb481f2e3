"""The Fig 4 bootstrapping flow, end to end.

    1. the enclave generates a key pair (private key never leaves),
    2. the client obtains a report binding the public key and has the
       Quoting Enclave turn it into a quote,
    3-4. the CA relays the quote to the IAS and checks the reply,
    5. the CA signs the public key into a certificate,
    6. certificate + wrapped symmetric key are provisioned into the
       enclave,
    7. the enclave seals keys and certificate for restarts.

``provision_client`` drives the whole flow against live CA/IAS objects;
``restore_client`` is the restart path ("an enclave only has to be
attested once").
"""

from __future__ import annotations

from typing import Optional

from repro.core.ca import CertificateAuthority
from repro.core.enclave_app import EndBoxEnclave
from repro.sgx.attestation import SgxPlatform
from repro.sgx.sealing import SealedStorage
from repro.vpn.handshake import Certificate


def provision_client(
    endbox: EndBoxEnclave,
    platform: SgxPlatform,
    ca: CertificateAuthority,
    storage: Optional[SealedStorage] = None,
) -> Certificate:
    """Run the full Fig 4 flow; returns the issued certificate."""
    public_key = endbox.gateway.ecall("generate_keypair")  # step 1
    report = platform.create_report(endbox.enclave, public_key)  # step 2
    quote = platform.quoting_enclave.quote(report)
    certificate, wrapped_key = ca.enroll(quote, public_key)  # steps 3-6
    certificate_bytes = certificate.serialize()
    endbox.gateway.ecall("provision", certificate_bytes, wrapped_key)
    if storage is not None:
        # the storage object is a handle to untrusted disk; sealed blobs
        # cross the boundary via its own interface, not this ecall
        endbox.gateway.ecall("seal_state", storage)  # step 7
    return certificate


def restore_client(endbox: EndBoxEnclave, storage: SealedStorage) -> Certificate:
    """Restart path: unseal previously provisioned credentials."""
    endbox.gateway.ecall("restore_state", storage)
    return endbox.gateway.ecall("get_certificate")

"""EndBox: the paper's primary contribution.

The core ties every substrate together (Fig 2/3 architecture):

* :mod:`~repro.core.enclave_app` — the trusted enclave application:
  Click + the VPN's security-sensitive parts behind a 4-ecall data-plane
  interface (§IV-B), with the CA public key baked into the measured
  image,
* :mod:`~repro.core.ca` — the deployment certificate authority and the
  Fig 4 remote-attestation / key-provisioning flow
  (:mod:`~repro.core.provisioning`),
* :mod:`~repro.core.endbox_client` — the partitioned VPN client: one
  ecall per packet, client-side Click, c2c QoS flagging, TLS key intake,
* :mod:`~repro.core.endbox_server` — the enforcement point: only
  attested, certified enclaves connect; configuration grace periods;
  0xEB-flag stripping for outside traffic,
* :mod:`~repro.core.config_update` — the Fig 5 update pipeline:
  sign/encrypt, publish on the config file server, announce via pings,
  fetch + decrypt + hot-swap on clients,
* :mod:`~repro.core.scenarios` — turnkey builders for the paper's two
  deployment scenarios (enterprise network, ISP network).
"""

from repro.core.ca import CertificateAuthority, EnrollmentError
from repro.core.enclave_app import build_endbox_image, EndBoxEnclave
from repro.core.endbox_client import EndBoxClient
from repro.core.endbox_server import EndBoxServer
from repro.core.config_update import ConfigBundle, ConfigFileServer, ConfigPublisher, UpdateTimings
from repro.core.provisioning import provision_client

__all__ = [
    "CertificateAuthority",
    "ConfigBundle",
    "ConfigFileServer",
    "ConfigPublisher",
    "EndBoxClient",
    "EndBoxEnclave",
    "EndBoxServer",
    "EnrollmentError",
    "UpdateTimings",
    "build_endbox_image",
    "provision_client",
]

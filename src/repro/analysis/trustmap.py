"""The module trust map: which code runs inside the enclave (Fig 3).

EndBox partitions the client: data-channel cryptography, the TLS
library, and all Click middlebox functions run *inside* the SGX enclave;
packet encapsulation, socket I/O and everything else stays outside,
under the machine owner's control.  The boundary checker uses this map
to decide who may touch enclave-private state directly and who must go
through :class:`~repro.sgx.gateway.EnclaveGateway`.

Domains:

* ``TRUSTED`` — code measured into the enclave image (or the SGX model
  itself, which *is* the hardware TCB here): ``repro.sgx``, the
  in-enclave TLS library, Click and the IDS it hosts, the crypto
  primitives, the security-sensitive VPN parts (data-channel protection,
  handshake keys, replay windows), and the enclave application.
* ``UNTRUSTED`` — machine-owner-controlled host code: the attack suite,
  HTTP substrate, network simulator "hardware", the host half of the
  VPN client/server, provisioning drivers, experiments.
* ``INFRA`` — trusted third parties outside the enclave (the deployment
  CA, which signs configs, lives in ``repro.core.ca``; the IAS model is
  part of ``repro.sgx``).
* ``SHARED`` — substrate used identically on both sides (the simulation
  engine, the cost model, this analysis package).

The most specific dotted prefix wins, so ``repro.core.enclave_app`` can
be trusted while the rest of ``repro.core`` is host-side code.
"""

from __future__ import annotations

import enum
from typing import Dict


class TrustDomain(enum.Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    INFRA = "infra"
    SHARED = "shared"


#: dotted module prefix -> domain; longest matching prefix wins.
TRUST_MAP: Dict[str, TrustDomain] = {
    # the SGX model is the hardware TCB; attestation/IAS ride along
    "repro.sgx": TrustDomain.TRUSTED,
    # in-enclave TLS (TaLoS stand-in, §III-D)
    "repro.tlslib": TrustDomain.TRUSTED,
    # Click and every element run inside the enclave (§IV-A)
    "repro.click": TrustDomain.TRUSTED,
    # the IDS engine is hosted by the in-enclave IDSMatcher element
    "repro.ids": TrustDomain.TRUSTED,
    # crypto primitives are linked into the enclave image
    "repro.crypto": TrustDomain.TRUSTED,
    # enclave-side VPN code: data-channel protection, handshake keys,
    # replay windows (keys never leave the enclave)
    "repro.vpn.channel": TrustDomain.TRUSTED,
    "repro.vpn.handshake": TrustDomain.TRUSTED,
    "repro.vpn.replay": TrustDomain.TRUSTED,
    # host-side VPN code: encapsulation, fragmentation, socket I/O,
    # pings, the management interface (Fig 3's untrusted half)
    "repro.vpn": TrustDomain.UNTRUSTED,
    # the enclave application itself (ecall handlers, measured image)
    "repro.core.enclave_app": TrustDomain.TRUSTED,
    # the deployment CA is a trusted *party* but runs outside enclaves
    "repro.core.ca": TrustDomain.INFRA,
    # host half of the EndBox client/server, scenario drivers
    "repro.core": TrustDomain.UNTRUSTED,
    # machine-owner code by definition
    "repro.attacks": TrustDomain.UNTRUSTED,
    "repro.http": TrustDomain.UNTRUSTED,
    "repro.netsim": TrustDomain.UNTRUSTED,
    # fault injection is machine-owner tooling, like the netsim
    # "hardware" it breaks: it flips public host-side switches and never
    # touches enclave-private state; deliberately NOT on the
    # determinism allowlist — plans run on the sim clock only
    "repro.faults": TrustDomain.UNTRUSTED,
    # fleet orchestration (balancers, deployment builder, migration) is
    # operator-side control-plane code; the trusted pieces it moves
    # around (enclaves, sealed state) live in their own modules
    "repro.fleet": TrustDomain.UNTRUSTED,
    "repro.experiments": TrustDomain.UNTRUSTED,
    "repro.consensus": TrustDomain.UNTRUSTED,
    # substrate shared by both sides
    "repro.sim": TrustDomain.SHARED,
    "repro.costs": TrustDomain.SHARED,
    "repro.analysis": TrustDomain.SHARED,
    # telemetry instruments are written from both sides of the boundary
    # (gateway counters, in-enclave Click element counters) but carry
    # only registered numeric values — never payloads or key material —
    # and read only the clock injected into them
    "repro.telemetry": TrustDomain.SHARED,
}


def trust_domain(module: str) -> TrustDomain:
    """Classify a dotted module name; unknown modules are UNTRUSTED.

    Defaulting to untrusted is the conservative choice: code we have
    not explicitly placed inside the enclave must use the gateway.
    """
    best: TrustDomain = TrustDomain.UNTRUSTED
    best_len = -1
    for prefix, domain in TRUST_MAP.items():
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
            best, best_len = domain, len(prefix)
    return best


#: modules allowed to consume wall-clock/OS entropy: they run strictly
#: host-side, outside any simulation, and their nondeterminism cannot
#: leak into experiment results.
DETERMINISM_ALLOWLIST = frozenset(
    {
        # prints human-facing elapsed wall time around whole experiments
        "repro.experiments.runner",
        # the linter itself never runs inside a simulation
        "repro.analysis",
        # deliberately NOT listed: repro.telemetry — the registry takes
        # an injected clock (the sim's now, or a clock passed by an
        # exempt caller) and must itself never read wall time
    }
)


def determinism_exempt(module: str) -> bool:
    """True when ``module`` may use wall-clock time / OS randomness."""
    return any(
        module == allowed or module.startswith(allowed + ".") for allowed in DETERMINISM_ALLOWLIST
    )


#: repo-relative directory names whose files are simulation-domain even
#: though they live outside the ``repro`` package: benchmarks regenerate
#: the paper's figures and examples script the same deterministic
#: simulations, so wall-clock/entropy leaks there skew results exactly
#: like leaks in the library would.
SIMULATION_PATH_DIRS = frozenset({"benchmarks", "examples"})

#: repo-relative file paths allowed wall-clock despite being in a
#: simulation-domain directory (suffix match, ``/``-normalized).
DETERMINISM_PATH_ALLOWLIST = frozenset(
    {
        # the bench harness wraps pytest-benchmark, whose whole job is
        # timing regeneration wall cost; the simulations it times stay
        # on the sim clock
        "benchmarks/conftest.py",
    }
)


def _normalized_parts(path: str) -> tuple:
    return tuple(part for part in path.replace("\\", "/").split("/") if part)


def simulation_domain_path(path: str) -> bool:
    """True when ``path`` lies in a simulation-domain directory."""
    return any(part in SIMULATION_PATH_DIRS for part in _normalized_parts(path)[:-1])


def determinism_exempt_path(path: str) -> bool:
    """True when the file at ``path`` may use wall-clock time."""
    parts = _normalized_parts(path)
    return any(
        parts[-len(allowed_parts):] == allowed_parts
        for allowed_parts in (_normalized_parts(a) for a in DETERMINISM_PATH_ALLOWLIST)
        if len(parts) >= len(allowed_parts)
    )

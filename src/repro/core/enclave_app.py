"""The EndBox enclave application (the trusted side of Fig 3).

The enclave image contains Click, the security-sensitive VPN parts and a
small set of entry points.  As in the paper (§IV-B), only a handful of
ecalls run during normal operation — here, ``process_packet`` is the
single data-plane ecall per packet (§IV-A's batching optimisation;
disable it and the client charges ~26 transitions per packet instead).

The CA public key is part of the measured initial data (§III-C), so an
image with a swapped key has a different MRENCLAVE and fails
attestation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.click.config import ClickSyntaxError
from repro.click.element import ElementError
from repro.click.hotswap import HotSwapManager, SwapTimings
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.stream import KeystreamCipher
from repro.crypto.x25519 import X25519PrivateKey, x25519
from repro.ids.snort_rules import parse_rules
from repro.netsim.packet import ENDBOX_PROCESSED_TOS, IPv4Packet
from repro.sgx.enclave import Enclave, EnclaveError, EnclaveImage, EnclaveMode
from repro.sgx.gateway import CostLedger, EnclaveGateway
from repro.sgx.trusted_time import TrustedTime
from repro.tlslib.keylog import TlsKeyRegistry
from repro.vpn.costing import crypto_cost
from repro.vpn.channel import ProtectionMode


# value -> member, resolved once at import: the per-packet ecall must not
# re-run the Enum constructor for every crossing
_PROTECTION_MODES = {m.value: m for m in ProtectionMode}


class ProvisioningError(EnclaveError):
    """Certificate/key provisioning failed inside the enclave."""


class ConfigError(EnclaveError):
    """A configuration bundle was rejected inside the enclave."""


def serialize_ca_public_key(public_key: RsaPublicKey) -> bytes:
    """Encode an RSA public key for enclave initial data."""
    return json.dumps({"n": str(public_key.n), "e": public_key.e}).encode()


def parse_ca_public_key(data: bytes) -> RsaPublicKey:
    """Decode an RSA public key from enclave initial data."""
    obj = json.loads(data.decode())
    return RsaPublicKey(n=int(obj["n"]), e=int(obj["e"]))


# ----------------------------------------------------------------------
# ecall handlers (module-level: their identity enters the measurement)
# ----------------------------------------------------------------------
def ecall_initialize(enclave, gateway, click_config: str, ruleset_text: str = "", sim=None) -> bool:
    """Build the in-enclave Click instance and supporting services."""
    state = enclave.trusted_state
    ledger = gateway.ledger
    context = {
        "in_enclave": enclave.mode is EnclaveMode.HARDWARE,
        "tls_keys": TlsKeyRegistry(),
    }
    if sim is not None:
        context["trusted_time"] = TrustedTime(sim, ledger)
    if ruleset_text:
        context["ruleset"] = parse_rules(
            ruleset_text, variables={"HOME_NET": "10.0.0.0/8", "EXTERNAL_NET": "any"}
        )
    state["click"] = HotSwapManager(
        click_config, state["cost_model"], ledger, in_memory=True, context=context
    )
    state["click_context"] = context
    state["config_version"] = 1
    return True


def ecall_generate_keypair(enclave, gateway) -> bytes:
    """Fig 4 step 1: create the enclave key pair; private key never leaves."""
    drbg = HmacDrbg(sha256(enclave.enclave_id.encode(), b"enclave-entropy"))
    key = X25519PrivateKey(drbg.generate(32))
    enclave.trusted_state["identity_key"] = key
    return key.public_bytes


def ecall_provision(enclave, gateway, certificate_bytes: bytes, wrapped_key: bytes) -> bool:
    """Fig 4 step 6: accept the CA-issued certificate + wrapped config key."""
    from repro.vpn.handshake import Certificate

    state = enclave.trusted_state
    ca_key = parse_ca_public_key(state["ca_public_key"])
    certificate = Certificate.parse(certificate_bytes)
    if not certificate.verify(ca_key):
        raise ProvisioningError("certificate is not signed by the deployment CA")
    identity: Optional[X25519PrivateKey] = state.get("identity_key")
    if identity is None:
        raise ProvisioningError("no enclave key pair generated yet")
    if certificate.public_key != identity.public_bytes:
        raise ProvisioningError("certificate binds a different public key")
    # ECIES unwrap: ephemeral_pub(32) || ciphertext
    if len(wrapped_key) < 33:
        raise ProvisioningError("malformed wrapped key")
    ephemeral_pub, ciphertext = wrapped_key[:32], wrapped_key[32:]
    shared = identity.exchange(ephemeral_pub)
    state["shared_config_key"] = KeystreamCipher(sha256(shared)).decrypt(b"wrap", ciphertext)
    state["certificate"] = certificate
    return True


def ecall_seal_state(enclave, gateway, storage) -> bool:
    """Fig 4 step 7: persist keys + certificate via SGX sealing."""
    state = enclave.trusted_state
    identity: Optional[X25519PrivateKey] = state.get("identity_key")
    certificate = state.get("certificate")
    shared = state.get("shared_config_key")
    if identity is None or certificate is None or shared is None:
        raise ProvisioningError("nothing to seal: provisioning incomplete")
    # serialized only to be sealed on the next line, never exposed raw
    blob = json.dumps(  # endbox-lint: declassify(TF505)
        {
            "identity": identity._private.hex(),
            "certificate": certificate.serialize().decode(),
            "shared_key": shared.hex(),
        }
    ).encode()
    storage.seal(enclave, "endbox-credentials", blob)
    return True


def ecall_restore_state(enclave, gateway, storage) -> bool:
    """Restart path: unseal credentials instead of re-attesting."""
    from repro.vpn.handshake import Certificate

    blob = storage.unseal(enclave, "endbox-credentials")
    obj = json.loads(blob.decode())
    state = enclave.trusted_state
    state["identity_key"] = X25519PrivateKey(bytes.fromhex(obj["identity"]))
    state["certificate"] = Certificate.parse(obj["certificate"].encode())
    state["shared_config_key"] = bytes.fromhex(obj["shared_key"])
    return True


def ecall_process_packet(
    enclave, gateway, packet: IPv4Packet, direction: str, mode_value: str, c2c_flagging: bool
) -> Tuple[bool, IPv4Packet]:
    """The single data-plane ecall: Click + in-enclave crypto accounting.

    Egress: run Click; accepted packets optionally get the 0xEB QoS flag
    so peer EndBox clients skip re-processing (§IV-A).  Ingress: packets
    already flagged bypass Click.
    """
    state = enclave.trusted_state
    manager: HotSwapManager = state["click"]
    model = state["cost_model"]
    ledger = gateway.ledger
    size = len(packet)
    # boundary copies (both modes) + EPC tax (hardware only)
    ledger.add(2 * model.memcpy(size))
    if enclave.mode is EnclaveMode.HARDWARE:
        ledger.add(size * model.epc_per_byte)
        # EPC oversubscription: when resident enclave memory exceeds the
        # 128 MiB cache, every touched page faults with probability
        # paging_fraction and pays the swap penalty (§II-C)
        paging = enclave.epc.paging_fraction()
        if paging > 0.0:
            pages_touched = size // 4096 + 4  # payload + code/stack working set
            ledger.add(paging * pages_touched * model.epc_page_fault)
            gateway._tm_epc_faults.inc(paging * pages_touched)
    mode = _PROTECTION_MODES[mode_value]
    ledger.add(crypto_cost(model, size, mode))  # data-channel crypto runs in here
    if direction == "ingress" and c2c_flagging and packet.tos == ENDBOX_PROCESSED_TOS:
        return True, packet  # peer already ran the middlebox functions
    accepted, packet = manager.router.process(packet)
    if accepted and direction == "egress" and c2c_flagging:
        packet = packet.copy(tos=ENDBOX_PROCESSED_TOS)
    return accepted, packet


def ecall_apply_config(enclave, gateway, blob: bytes) -> Tuple[int, SwapTimings]:
    """Fig 5 step 8: verify, decrypt and hot-swap a configuration bundle.

    Raises :class:`ConfigError` on bad signatures, rollback attempts or
    undecryptable payloads.  Returns (new version, swap timings).
    """
    state = enclave.trusted_state
    model = state["cost_model"]
    ca_key = parse_ca_public_key(state["ca_public_key"])
    try:
        envelope = json.loads(blob.decode())
        version = int(envelope["version"])
        encrypted = bool(envelope["encrypted"])
        payload = bytes.fromhex(envelope["payload"])
        signature = int(envelope["signature"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed config bundle: {exc}") from exc
    signed_body = str(version).encode() + (b"\x01" if encrypted else b"\x00") + payload
    if not ca_key.verify(signed_body, signature):
        raise ConfigError("configuration signature invalid")
    if version <= state.get("config_version", 0):
        raise ConfigError(
            f"configuration rollback rejected (have {state.get('config_version')}, got {version})"
        )
    decrypt_s = 0.0
    if encrypted:
        shared = state.get("shared_config_key")
        if shared is None:
            raise ConfigError("no shared key provisioned; cannot decrypt configuration")
        payload = KeystreamCipher(shared).decrypt(str(version).encode(), payload)
        decrypt_s = model.config_decrypt_fixed
        gateway.ledger.add(decrypt_s)
    try:
        content = json.loads(payload.decode())
        click_config = content["click_config"]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise ConfigError(f"undecodable configuration payload: {exc}") from exc
    ruleset_text = content.get("ruleset", "")
    if ruleset_text:
        state["click_context"]["ruleset"] = parse_rules(
            ruleset_text, variables={"HOME_NET": "10.0.0.0/8", "EXTERNAL_NET": "any"}
        )
    manager: HotSwapManager = state["click"]
    try:
        # the hot-swap manager statically validates the graph (port
        # arities, cycles, unknown elements) before committing the swap
        timings = manager.hotswap(click_config)
    except (ClickSyntaxError, ElementError) as exc:
        raise ConfigError(f"configuration rejected before swap: {exc}") from exc
    timings.decrypt_s = decrypt_s
    state["config_version"] = version
    return version, timings


def ecall_export_handshake_credentials(enclave, gateway):
    """Hand the VPN identity key and certificate to the untrusted half.

    In the real EndBox the OpenVPN control channel terminates *inside*
    the enclave, so the identity key never leaves.  This model drives
    the handshake from host code; exporting the credentials through an
    ecall keeps the crossing on the audited gateway surface instead of
    letting untrusted code reach into ``trusted_state`` directly.
    Returns ``None`` while the enclave is unprovisioned.
    """
    state = enclave.trusted_state
    identity_key = state.get("identity_key")
    certificate = state.get("certificate")
    if identity_key is None or certificate is None:
        return None
    return identity_key, certificate


def ecall_get_certificate(enclave, gateway):
    """The (public) CA-issued certificate, e.g. after ``restore_state``."""
    return enclave.trusted_state.get("certificate")


def ecall_set_cost_model(enclave, gateway, model, keep_existing: bool = False) -> bool:
    """Install the cost model in-enclave components price their work with."""
    if keep_existing and enclave.trusted_state.get("cost_model") is not None:
        return False
    enclave.trusted_state["cost_model"] = model
    return True


def ecall_register_tls_session(enclave, gateway, session) -> bool:
    """§III-D: accept TLS session keys from the untrusted custom library."""
    registry: TlsKeyRegistry = enclave.trusted_state["click_context"]["tls_keys"]
    registry.register(session)
    return True


def ecall_read_handler(enclave, gateway, element: str, handler: str) -> str:
    """Debug/ops access to Click read handlers (no secrets exposed)."""
    manager: HotSwapManager = enclave.trusted_state["click"]
    return manager.router.read_handler(element, handler)


ENDBOX_ECALLS = {
    "initialize": ecall_initialize,
    "generate_keypair": ecall_generate_keypair,
    "provision": ecall_provision,
    "seal_state": ecall_seal_state,
    "restore_state": ecall_restore_state,
    "process_packet": ecall_process_packet,
    "apply_config": ecall_apply_config,
    "export_handshake_credentials": ecall_export_handshake_credentials,
    "get_certificate": ecall_get_certificate,
    "set_cost_model": ecall_set_cost_model,
    "register_tls_session": ecall_register_tls_session,
    "read_handler": ecall_read_handler,
}


def build_endbox_image(ca_public_key: RsaPublicKey, cost_model, version: int = 1) -> EnclaveImage:
    """Build the measured EndBox enclave image.

    The CA public key is initial data, so it is covered by MRENCLAVE.
    The cost model rides along as (non-secret) initial data too, letting
    in-enclave components price their work consistently.
    """
    return EnclaveImage(
        name="endbox-enclave",
        ecalls=ENDBOX_ECALLS,
        initial_data={
            "ca_public_key": serialize_ca_public_key(ca_public_key),
            "cost_model": cost_model,
        },
        signer="endbox-project",
        version=version,
    )


@dataclass
class EndBoxEnclave:
    """Convenience bundle: an enclave instance plus its gateway."""

    enclave: Enclave
    gateway: EnclaveGateway

    @classmethod
    def create(
        cls,
        image: EnclaveImage,
        platform,
        mode: EnclaveMode = EnclaveMode.HARDWARE,
        heap_bytes: int = 8 * 1024 * 1024,
    ) -> "EndBoxEnclave":
        enclave = Enclave(image, platform.epc, mode=mode, heap_bytes=heap_bytes)
        platform.load(enclave)
        model = image.initial_data["cost_model"]
        gateway = EnclaveGateway(enclave, CostLedger(), transition_cost=model.enclave_transition)
        gateway.set_ecall_validator("process_packet", _validate_process_packet)
        gateway.set_ecall_validator("apply_config", _validate_blob)
        gateway.set_ecall_validator("provision", _validate_provision)
        return cls(enclave=enclave, gateway=gateway)


_PROTECTION_MODE_VALUES = frozenset(m.value for m in ProtectionMode)


def _validate_process_packet(packet, direction, mode_value, c2c_flagging) -> bool:
    return (
        isinstance(packet, IPv4Packet)
        and direction in ("egress", "ingress")
        and mode_value in _PROTECTION_MODE_VALUES
        and isinstance(c2c_flagging, bool)
        and len(packet) <= 65535
    )


def _validate_blob(blob) -> bool:
    return isinstance(blob, (bytes, bytearray)) and len(blob) <= 1 << 22


def _validate_provision(certificate_bytes, wrapped_key) -> bool:
    return (
        isinstance(certificate_bytes, (bytes, bytearray))
        and isinstance(wrapped_key, (bytes, bytearray))
        and len(certificate_bytes) <= 1 << 16
        and 33 <= len(wrapped_key) <= 1 << 12
    )

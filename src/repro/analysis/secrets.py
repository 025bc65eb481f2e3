"""The secret-flow registry: what is secret, what leaks, what cleanses.

EndBox's secrecy argument (§V-A) is that key material and decrypted TLS
plaintext never leave the attested enclave.  The boundary pass (EB1xx)
checks *who calls whom* across the enclave boundary; the taint pass
(TF5xx, :mod:`~repro.analysis.checkers.taint`) checks *what data flows*
across it.  This module is the declarative half of that pass, styled
after :mod:`~repro.analysis.trustmap`: it names the taint **sources**
(key schedules, HMAC pad states, private scalars, DRBG state, sealing
keys, TLS session secrets, VPN channel keys), the untrusted **sinks**
(ocall arguments, trace/log events, exception messages, packet payloads
built outside the enclave, JSON artifact writers, injected export hooks)
and the **sanitizers/declassifiers** (protect/encrypt/seal/MAC/hash)
whose output is safe to expose.

Intentional exposure — the paper's own keylog path (§III-D), sealing a
serialized credential blob — is *declassified*, either here in
:data:`DECLASSIFICATIONS` (with a justification, like a baseline entry)
or inline at the call site with ``# endbox-lint: declassify(TF5xx)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.analysis.findings import Waiver

# ----------------------------------------------------------------------
# rule family
# ----------------------------------------------------------------------
TF_RULES: Dict[str, str] = {
    "TF501": "secret flows into an ocall argument (leaves the enclave uncleansed)",
    "TF502": "secret flows into a trace/log/print event",
    "TF503": "secret interpolated into an exception message",
    "TF504": "secret flows into packet payload construction in untrusted-domain code",
    "TF505": "secret flows into a JSON/artifact writer",
    "TF506": "secret passed to an externally-injected export hook",
}

# ----------------------------------------------------------------------
# taint sources
# ----------------------------------------------------------------------
#: dotted function names whose *return value* is key material.  These
#: override the sanitizer table below: HKDF is built from HMAC, but its
#: output is a key, not a MAC tag.
SECRET_FUNCTIONS: Dict[str, str] = {
    "repro.crypto.hkdf.hkdf_extract": "HKDF-extracted pseudorandom key",
    "repro.crypto.hkdf.hkdf_expand": "HKDF-expanded key block",
    "repro.crypto.hkdf.hkdf_expand_label": "TLS 1.3 traffic secret",
    "repro.crypto.x25519.x25519": "X25519 scalar-mult output",
    "repro.tlslib.handshake.derive_session_keys": "TLS session keys",
    "repro.vpn.handshake._derive": "VPN session secrets",
}

#: bare method names whose return value is secret on any receiver.
SECRET_METHODS: Dict[str, str] = {
    "exchange": "Diffie-Hellman shared secret",
    "_keyed_state": "HMAC keyed pad states",
    "_sealing_key": "SGX sealing key",
    "unseal": "unsealed enclave secrets",
    "decrypt_stream": "middlebox-decrypted TLS plaintext",
}

#: attribute names that hold secrets wherever they are read.  Learned
#: attributes (``obj.attr = <secret>`` seen anywhere on the tree) extend
#: this set during analysis; these are the documented, load-bearing ones.
SECRET_ATTRIBUTES: Dict[str, str] = {
    # symmetric key schedules and caches
    "_midstate": "keystream key schedule (SHAKE-128 state with the key absorbed)",
    "_hmac_key": "data-channel HMAC key",
    "_mac_key": "record-layer MAC key",
    # private scalars / generic key slots (DRBG, x25519 holders)
    "_key": "private key material",
    "_value": "DRBG internal state",
    "_private": "x25519 private scalar",
    "identity_key": "static VPN identity key",
    "_ephemeral": "ephemeral handshake key",
    # TLS session secrets
    "client_write": "TLS client traffic secret",
    "server_write": "TLS server traffic secret",
    "keys": "TLS session keys",
    "_sessions": "TLS key registry contents",
    "_observer_seen": "middlebox plaintext retransmission cache",
    # VPN channel keys
    "client_cipher": "VPN client cipher key",
    "client_hmac": "VPN client HMAC key",
    "server_cipher": "VPN server cipher key",
    "server_hmac": "VPN server HMAC key",
    "confirmation": "handshake confirmation secret",
    "secrets": "VPN session secrets",
    # sealing
    "_platform_secret": "platform sealing fuse key",
}

#: module-level globals holding secrets.  Empty: the one crypto cache
#: (HMAC pad states) is the ``lru_cache`` of ``repro.crypto.hmac``'s
#: ``_keyed_state``, whose result SECRET_METHODS already marks as a
#: source; the table stays for future globals.
SECRET_GLOBALS: Dict[str, str] = {}

#: parameter names that carry secrets *in trusted-domain code* (the
#: enclave side receives keys/plaintext under these names).
SECRET_PARAMETERS: FrozenSet[str] = frozenset(
    {
        "key",
        "cipher_key",
        "hmac_key",
        "private_bytes",
        "scalar",
        "ikm",
        "prk",
        "secret",
        "secrets",
        "shared_secret",
        "shared_material",
        "keys",
        "session_keys",
        "identity_key",
        "plaintext",
        "session",
    }
)

#: keys of ``enclave.trusted_state`` that hold secrets.
SECRET_STATE_KEYS: Dict[str, str] = {
    "identity_key": "enclave identity key",
    "shared_config_key": "shared configuration key",
}

# ----------------------------------------------------------------------
# sanitizers / declassifiers
# ----------------------------------------------------------------------
#: dotted function names whose output is safe to expose even when fed
#: secrets (MACs, hashes: one-way).
SANITIZER_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "repro.crypto.hmac.hmac_sha256",
        "repro.crypto.hmac.hmac_verify",
        "repro.crypto.hashes.sha256",
        "repro.crypto.hashes.sha256_hex",
        "repro.crypto.hashes.truncated_sha256",
        "hmac.compare_digest",
        "hashlib.sha256",
    }
)

#: bare method/callable names whose output is safe: ciphertext, MAC
#: tags, signatures, hashes, sealed blobs, lengths.  ``decrypt`` is here
#: deliberately: an *endpoint* decrypting its own traffic is not a
#: middlebox leak — the middlebox plaintext source is ``decrypt_stream``.
SANITIZER_METHODS: FrozenSet[str] = frozenset(
    {
        "encrypt",
        "decrypt",
        "process",
        "protect",
        "seal",
        "hmac_sha256",
        "hmac_verify",
        "digest",
        "hexdigest",
        "finished_mac",
        "sign",
        "verify",
        "compare_digest",
        "fingerprint",
        "len",
        "bool",
        "type",
        "isinstance",
        "id",
        "range",
    }
)

#: attributes that stay public even on an object that carries secrets
#: (a key pair's public half, counters, identifiers, wire metadata).
PUBLIC_ATTRIBUTES: FrozenSet[str] = frozenset(
    {
        "public_bytes",
        "public_key",
        "certificate",
        "ca_public_key",
        "subject",
        "signature",
        "not_after_version",
        "session_id",
        "packet_id",
        "frag_id",
        "frag_index",
        "frag_count",
        "opcode",
        "body",
        "mode",
        "version",
        "suite",
        "versions",
        "suites",
        "server_name",
        "transcript",
        "config_version",
        "grace_period_s",
        "timestamp_ns",
        "client_endpoint",
        "server_endpoint",
        "handshakes_completed",
        "keys_registered",
        "packets_protected",
        "packets_rejected",
        "sequence",
        "hello",
        "offered_versions",
        "offered_suites",
        "min_version",
        "custom",
        "name",
        "conn",
        "role",
    }
)

# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
#: method names that cross the enclave boundary outward (TF501).
OCALL_METHODS: FrozenSet[str] = frozenset({"ocall"})

#: dotted prefixes of trace/telemetry/logging calls (TF502); the bare
#: builtin ``print`` is handled separately by the checker.
TRACE_PREFIXES = ("repro.netsim.trace", "logging.")

#: constructors and logger-style method names that feed trace/telemetry
#: stores (``TraceEntry(...)``, ``tracer._record(...)``, ``log.info``).
TRACE_CONSTRUCTORS: FrozenSet[str] = frozenset({"TraceEntry"})
TRACE_METHODS: FrozenSet[str] = frozenset(
    {"_record", "record", "log", "debug", "info", "warning", "error", "critical", "exception"}
)

#: constructors of wire packets; feeding them secrets *outside* the
#: enclave is plaintext exfiltration onto the simulated wire (TF504).
PACKET_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"IPv4Packet", "UdpDatagram", "TcpSegment", "IcmpMessage", "WireFrame", "VpnPacket"}
)
PACKET_MODULE_PREFIXES = ("repro.netsim.packet.", "repro.vpn.protocol.")

#: JSON/artifact writers (TF505).
ARTIFACT_FUNCTIONS: FrozenSet[str] = frozenset({"json.dump", "json.dumps"})
ARTIFACT_METHODS: FrozenSet[str] = frozenset({"write_text", "write_bytes", "write"})

#: externally-injected export hooks (TF506): callables handed in by
#: untrusted code that trusted code invokes with session material.
EXPORT_HOOKS: FrozenSet[str] = frozenset({"key_export"})


# ----------------------------------------------------------------------
# the declassification registry
# ----------------------------------------------------------------------
#: every entry here is paper-sanctioned exposure; anything new must
#: either be fixed or argued into this table in review.
DECLASSIFICATIONS: List[Waiver] = [
    Waiver(
        rule="TF506",
        path="repro/tlslib/library.py",
        contains="key_export",
        note=(
            "§III-D: the modified OpenSSL forwards negotiated session keys "
            "through the OpenVPN management interface into the enclave-side "
            "TlsKeyRegistry — the paper's keylog path, by design"
        ),
    ),
]

"""SGX model tests: measurement, EPC, transitions, attestation, sealing."""

import json
import os
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import pytest

from repro.crypto import rsa
from repro.crypto.rsa import RsaKeyPair
from repro.sgx import (
    AttestationError,
    CostLedger,
    Enclave,
    EnclaveError,
    EnclaveGateway,
    EnclaveImage,
    EnclaveMode,
    EnclavePageCache,
    IntelAttestationService,
    InterfaceViolation,
    InterfaceWarning,
    MonotonicCounter,
    SealedStorage,
    SealingError,
    SgxPlatform,
    TrustedTime,
)
from repro.sgx.epc import EPC_SIZE_BYTES, EpcError
from repro.sim import Simulator


def echo_ecall(enclave, gateway, value):
    return ("echo", value)


def store_ecall(enclave, gateway, key, value):
    enclave.trusted_state[key] = value
    return True


def load_ecall(enclave, gateway, key):
    return enclave.trusted_state.get(key)


def make_image(name="test-enclave", **data):
    return EnclaveImage(
        name,
        ecalls={"echo": echo_ecall, "store": store_ecall, "load": load_ecall},
        initial_data=data or {"ca_pubkey": b"\x01" * 32},
    )


@pytest.fixture()
def enclave():
    return Enclave(make_image(), EnclavePageCache())


# ----------------------------------------------------------------------
# measurement & lifecycle
# ----------------------------------------------------------------------
def test_measurement_is_deterministic():
    assert make_image().measure() == make_image().measure()


def test_measurement_changes_with_initial_data():
    good = make_image(ca_pubkey=b"\x01" * 32)
    evil = good.tampered(ca_pubkey=b"\x02" * 32)
    assert good.measure() != evil.measure()


def test_measurement_changes_with_code():
    def evil_ecall(enclave, gateway, value):
        return ("evil", value)

    image_a = make_image()
    image_b = EnclaveImage("test-enclave", ecalls={"echo": evil_ecall}, initial_data=image_a.initial_data)
    assert image_a.measure() != image_b.measure()


def test_enclave_initial_data_becomes_trusted_state(enclave):
    assert enclave.trusted_state["ca_pubkey"] == b"\x01" * 32


def test_destroyed_enclave_rejects_entry(enclave):
    gateway = EnclaveGateway(enclave)
    enclave.destroy()
    with pytest.raises(EnclaveError):
        gateway.ecall("echo", 1)


def test_destroy_frees_epc():
    epc = EnclavePageCache()
    enclave = Enclave(make_image(), epc, heap_bytes=1 << 20)
    assert epc.allocated_bytes >= 1 << 20
    enclave.destroy()
    assert epc.allocated_bytes == 0


def test_simulation_mode_does_not_touch_epc():
    epc = EnclavePageCache()
    Enclave(make_image(), epc, mode=EnclaveMode.SIMULATION)
    assert epc.allocated_bytes == 0


# ----------------------------------------------------------------------
# EPC
# ----------------------------------------------------------------------
def test_epc_page_rounding():
    epc = EnclavePageCache()
    epc.allocate("e1", 1)
    assert epc.usage_of("e1") == 4096


def test_epc_oversubscription_and_paging_fraction():
    epc = EnclavePageCache()
    epc.allocate("big", EPC_SIZE_BYTES * 2)
    assert epc.oversubscription_pages() > 0
    assert 0.4 < epc.paging_fraction() < 0.6


def test_epc_free_unknown_owner_raises():
    with pytest.raises(EpcError):
        EnclavePageCache().free("ghost")


def test_epc_within_budget_no_paging():
    epc = EnclavePageCache()
    epc.allocate("small", 1 << 20)
    assert epc.paging_fraction() == 0.0


# ----------------------------------------------------------------------
# gateway: transitions, costs, validation
# ----------------------------------------------------------------------
def test_ecall_dispatch_and_counting(enclave):
    gateway = EnclaveGateway(enclave)
    assert gateway.ecall("echo", 42) == ("echo", 42)
    assert gateway.ecalls == 1


def test_undeclared_ecall_rejected(enclave):
    gateway = EnclaveGateway(enclave)
    with pytest.raises(EnclaveError):
        gateway.ecall("not_an_entry_point")


def test_hardware_mode_charges_transitions():
    enclave = Enclave(make_image(), EnclavePageCache(), mode=EnclaveMode.HARDWARE)
    ledger = CostLedger()
    gateway = EnclaveGateway(enclave, ledger, transition_cost=4e-6)
    gateway.ecall("echo", 1)
    # the EENTER/EEXIT pair alone: buffer copies are the handlers' to price
    assert ledger.total == 2 * 4e-6


def test_simulation_mode_charges_nothing():
    enclave = Enclave(make_image(), EnclavePageCache(), mode=EnclaveMode.SIMULATION)
    ledger = CostLedger()
    gateway = EnclaveGateway(enclave, ledger, transition_cost=4e-6)
    gateway.ecall("echo", 1)
    assert ledger.total == 0.0


def test_ecall_validator_blocks_bad_args(enclave):
    gateway = EnclaveGateway(enclave)
    gateway.set_ecall_validator("store", lambda key, value: isinstance(key, str) and len(key) < 32)
    assert gateway.ecall("store", "ok", 1)
    with pytest.raises(InterfaceViolation):
        gateway.ecall("store", "x" * 100, 1)
    # the handler never ran for the rejected call
    assert "x" * 100 not in enclave.trusted_state


def test_ocall_roundtrip_and_return_validation(enclave):
    gateway = EnclaveGateway(enclave)
    gateway.register_ocall("read_config", lambda: b"config-bytes", validator=lambda r: isinstance(r, bytes))
    assert gateway.ocall("read_config") == b"config-bytes"
    gateway.register_ocall("lie", lambda: "not-bytes", validator=lambda r: isinstance(r, bytes))
    with pytest.raises(InterfaceViolation):
        gateway.ocall("lie")


def test_reentrant_ecall_detected():
    epc = EnclavePageCache()

    def reenter(enclave, gateway):
        return gateway.ecall("echo", 1)

    image = EnclaveImage("re", ecalls={"echo": echo_ecall, "reenter": reenter})
    gateway = EnclaveGateway(Enclave(image, epc))
    with pytest.raises(EnclaveError):
        gateway.ecall("reenter")


def test_ledger_drain_resets_pending():
    ledger = CostLedger()
    ledger.add(1e-3)
    assert ledger.drain() == pytest.approx(1e-3)
    assert ledger.pending == 0.0
    assert ledger.total == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        ledger.add(-1)


# ----------------------------------------------------------------------
# attestation
# ----------------------------------------------------------------------
@pytest.fixture()
def attestation_world():
    ias = IntelAttestationService()
    platform = SgxPlatform(ias)
    enclave = Enclave(make_image(), platform.epc)
    platform.load(enclave)
    return ias, platform, enclave


def test_provision_platforms_matches_one_call_per_id(monkeypatch):
    monkeypatch.setattr(rsa, "_usable_cores", lambda: 2)
    ids = ["platform-0", "platform-1", "platform-2"]
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    batch_ias = IntelAttestationService()
    batch = batch_ias.provision_platforms(ids)
    monkeypatch.setattr(rsa, "_KEYPAIR_CACHE", {})
    serial_ias = IntelAttestationService()
    serial = [serial_ias.provision_platform(platform_id) for platform_id in ids]
    assert [(k.n, k.d) for k in batch] == [(k.n, k.d) for k in serial]
    # each key is registered under its own id: its platform's quotes verify
    platform = SgxPlatform(batch_ias, name=ids[1], attestation_key=batch[1])
    enclave = Enclave(make_image(), platform.epc)
    platform.load(enclave)
    quote = platform.quoting_enclave.quote(platform.create_report(enclave, b"k" * 32))
    assert batch_ias.verify_quote(quote).ok


def test_unnamed_platforms_are_numbered_per_ias():
    first = SgxPlatform(IntelAttestationService())
    again = SgxPlatform(IntelAttestationService())
    assert first.platform_id == again.platform_id == "sgx-platform-1"
    assert first.quoting_enclave._key.n == again.quoting_enclave._key.n
    assert SgxPlatform(first.ias).platform_id == "sgx-platform-2"
    assert typing.get_type_hints(SgxPlatform.create_local_report)["return"]


COLD_FLEET_BUILD = """
import json, os, sys
forks = []
fork = os.fork
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted_fork
from repro.fleet import DeploymentSpec
DeploymentSpec(setup="endbox_sgx", use_case="NOP", clients=16).build()
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({
    "forks": len(forks),
    "cores": len(os.sched_getaffinity(0)),
    "child_left": left,
    "imported": sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)),
}))
"""


def test_cold_fleet_build_forks_few_children_and_leaves_none():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", COLD_FLEET_BUILD],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["forks"] == min(16, result["cores"]) - 1
    assert not result["child_left"]
    assert result["imported"] == []


def test_quote_verifies_at_ias(attestation_world):
    ias, platform, enclave = attestation_world
    report = platform.create_report(enclave, b"enclave-pubkey")
    quote = platform.quoting_enclave.quote(report)
    verdict = ias.verify_quote(quote)
    assert verdict.ok
    assert verdict.verify(ias.signing_key.public_key)


def test_report_binds_user_data(attestation_world):
    _ias, platform, enclave = attestation_world
    report_a = platform.create_report(enclave, b"key-A")
    report_b = platform.create_report(enclave, b"key-B")
    assert report_a.report_data != report_b.report_data


def test_tampered_quote_fails(attestation_world):
    ias, platform, enclave = attestation_world
    from repro.sgx.attestation import Quote, Report

    report = platform.create_report(enclave, b"k")
    quote = platform.quoting_enclave.quote(report)
    forged_report = Report(
        mrenclave=b"\x00" * 32,
        platform_id=report.platform_id,
        report_data=report.report_data,
    )
    forged = Quote(report=forged_report, signature=quote.signature, qe_identity=quote.qe_identity)
    assert not ias.verify_quote(forged).ok


def test_unprovisioned_platform_fails(attestation_world):
    ias, platform, enclave = attestation_world
    from repro.sgx.attestation import Quote

    report = platform.create_report(enclave, b"k")
    rogue_key = RsaKeyPair(seed=b"rogue")
    unsigned = Quote(report=report, signature=0, qe_identity="qe:rogue")
    forged = Quote(report=report, signature=rogue_key.sign(unsigned.body()), qe_identity="qe:rogue")
    assert not ias.verify_quote(forged).ok


def test_revoked_platform_fails(attestation_world):
    ias, platform, enclave = attestation_world
    report = platform.create_report(enclave, b"k")
    quote = platform.quoting_enclave.quote(report)
    ias.revoke_platform(platform.platform_id)
    verdict = ias.verify_quote(quote)
    assert not verdict.ok and "revoked" in verdict.reason


def test_cannot_report_foreign_enclave(attestation_world):
    _ias, platform, _enclave = attestation_world
    foreign = Enclave(make_image("other"), EnclavePageCache())
    with pytest.raises(AttestationError):
        platform.create_report(foreign, b"k")


def test_cannot_report_destroyed_enclave(attestation_world):
    _ias, platform, enclave = attestation_world
    enclave.destroy()
    with pytest.raises(AttestationError):
        platform.create_report(enclave, b"k")


# ----------------------------------------------------------------------
# sealing & counters
# ----------------------------------------------------------------------
def test_seal_unseal_roundtrip(attestation_world):
    _ias, platform, enclave = attestation_world
    storage = SealedStorage(platform.platform_id)
    storage.seal(enclave, "vpn-keys", b"secret-key-material")
    assert storage.unseal(enclave, "vpn-keys") == b"secret-key-material"


def test_other_enclave_cannot_unseal(attestation_world):
    _ias, platform, enclave = attestation_world
    storage = SealedStorage(platform.platform_id)
    storage.seal(enclave, "vpn-keys", b"secret")
    other = Enclave(make_image("other-enclave"), platform.epc)
    with pytest.raises(SealingError):
        storage.unseal(other, "vpn-keys")


def test_other_platform_cannot_unseal(attestation_world):
    _ias, platform, enclave = attestation_world
    storage = SealedStorage(platform.platform_id)
    storage.seal(enclave, "vpn-keys", b"secret")
    foreign_storage = SealedStorage("different-machine")
    foreign_storage.blobs = storage.blobs  # copy the blob files over
    with pytest.raises(SealingError):
        foreign_storage.unseal(enclave, "vpn-keys")


def test_tampered_blob_detected(attestation_world):
    _ias, platform, enclave = attestation_world
    storage = SealedStorage(platform.platform_id)
    storage.seal(enclave, "cfg", b"version=7")
    blob = bytearray(storage.blobs["cfg"])
    blob[-1] ^= 0xFF
    storage.blobs["cfg"] = bytes(blob)
    with pytest.raises(SealingError):
        storage.unseal(enclave, "cfg")


def test_unseal_missing_blob(attestation_world):
    _ias, platform, enclave = attestation_world
    with pytest.raises(SealingError):
        SealedStorage(platform.platform_id).unseal(enclave, "ghost")


def test_monotonic_counter(attestation_world):
    _ias, _platform, enclave = attestation_world
    counters = MonotonicCounter()
    assert counters.create(enclave, "config-version") == 0
    assert counters.increment(enclave, "config-version") == 1
    assert counters.increment(enclave, "config-version") == 2
    assert counters.read(enclave, "config-version") == 2
    with pytest.raises(SealingError):
        counters.read(enclave, "nope")


# ----------------------------------------------------------------------
# trusted time
# ----------------------------------------------------------------------
def test_trusted_time_monotonic_and_charged():
    sim = Simulator()
    ledger = CostLedger()
    clock = TrustedTime(sim, ledger, read_cost=10e-6, granularity=1e-3)
    readings = []

    def proc():
        readings.append(clock.read())
        yield sim.timeout(0.0105)
        readings.append(clock.read())

    sim.process(proc())
    sim.run()
    assert readings[0] == 0.0
    assert readings[1] == pytest.approx(0.010)
    assert ledger.total == pytest.approx(20e-6)
    assert clock.reads == 2


def test_rejected_ecall_still_counts_the_attempted_transition(enclave):
    gateway = EnclaveGateway(enclave)
    gateway.set_ecall_validator("store", lambda key, value: isinstance(key, str))
    with pytest.raises(InterfaceViolation):
        gateway.ecall("store", 123, 1)
    # the validator fires before EENTER: no transition happened, the
    # enclave was never entered, and the handler never ran
    assert gateway.ecalls == 0
    assert 123 not in enclave.trusted_state


def test_rejected_ocall_return_counts_the_completed_exit(enclave):
    gateway = EnclaveGateway(enclave)
    gateway.register_ocall("lie", lambda: "not-bytes", validator=lambda r: isinstance(r, bytes))
    with pytest.raises(InterfaceViolation):
        gateway.ocall("lie")
    # the untrusted handler DID run (the exit happened); only the return
    # value was stopped at the boundary on the way back in
    assert gateway.ocalls == 1


def test_ledger_drain_is_idempotent_until_new_costs():
    ledger = CostLedger()
    ledger.add(2e-6)
    ledger.add(3e-6)
    assert ledger.pending == pytest.approx(5e-6)
    assert ledger.drain() == pytest.approx(5e-6)
    assert ledger.drain() == 0.0  # nothing pending until new costs arrive
    ledger.add(1e-6)
    assert ledger.drain() == pytest.approx(1e-6)
    # total is the all-time sum, unaffected by draining
    assert ledger.total == pytest.approx(6e-6)


def test_register_ocall_without_validator_warns(enclave):
    gateway = EnclaveGateway(enclave)
    with pytest.warns(InterfaceWarning, match="without a return-value validator"):
        gateway.register_ocall("naked", lambda: b"x")
    # the handler still works; the warning is advisory
    assert gateway.ocall("naked") == b"x"


def test_register_ocall_unvalidated_ok_suppresses_warning(enclave):
    gateway = EnclaveGateway(enclave)
    with warnings.catch_warnings():
        warnings.simplefilter("error", InterfaceWarning)
        gateway.register_ocall("bait", lambda: b"x", unvalidated_ok=True)
        gateway.register_ocall(
            "checked", lambda: b"x", validator=lambda r: isinstance(r, bytes)
        )
    assert gateway.ocall("bait") == b"x"


def test_local_attestation_between_resident_enclaves():
    ias = IntelAttestationService()
    platform = SgxPlatform(ias)
    a = Enclave(make_image("encl-a"), platform.epc)
    b = Enclave(make_image("encl-b"), platform.epc)
    platform.load(a)
    platform.load(b)
    assert platform.local_attest(a, b, b"session-binding")
    report, mac = platform.create_local_report(a, b"data")
    assert platform.verify_local_report(b, report, mac)
    # a foreign platform's enclave cannot verify the report
    other = SgxPlatform(ias)
    c = Enclave(make_image("encl-c"), other.epc)
    other.load(c)
    assert not other.verify_local_report(c, report, mac)
    # tampered MAC fails even locally
    assert not platform.verify_local_report(b, report, b"\x00" * 32)

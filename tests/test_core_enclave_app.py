"""Tests for the EndBox enclave application + CA + provisioning flow."""

import pytest

from repro.click import configs as click_configs
from repro.core.ca import CertificateAuthority, EnrollmentError
from repro.core.config_update import ConfigPublisher
from repro.core.enclave_app import (
    ConfigError,
    EndBoxEnclave,
    ProvisioningError,
    build_endbox_image,
)
from repro.core.provisioning import provision_client, restore_client
from repro.costs import default_cost_model
from repro.crypto.rsa import RsaKeyPair
from repro.netsim import IPv4Packet, UdpDatagram
from repro.netsim.packet import ENDBOX_PROCESSED_TOS
from repro.sgx import IntelAttestationService, SgxPlatform, SealedStorage
from repro.sgx.enclave import EnclaveMode
from repro.sgx.gateway import InterfaceViolation
from repro.sgx.sealing import SealingError
from repro.sim import Simulator


@pytest.fixture()
def world():
    ias = IntelAttestationService()
    ca = CertificateAuthority(ias, seed=b"t-ca")
    model = default_cost_model()
    image = build_endbox_image(ca.public_key, model)
    ca.whitelist_measurement(image.measure())
    platform = SgxPlatform(ias)
    endbox = EndBoxEnclave.create(image, platform)
    storage = SealedStorage(platform.platform_id)
    return ias, ca, image, platform, endbox, storage


def udp_packet(payload=b"data", dport=5001, tos=0):
    return IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(40000, dport, payload), tos=tos)


# ----------------------------------------------------------------------
# provisioning (Fig 4)
# ----------------------------------------------------------------------
def test_full_provisioning_flow(world):
    _ias, ca, _image, platform, endbox, storage = world
    cert = provision_client(endbox, platform, ca, storage)
    assert cert.verify(ca.public_key)
    assert cert.subject == f"endbox:{platform.platform_id}"
    state = endbox.enclave.trusted_state
    assert state["shared_config_key"] == ca.shared_config_key
    assert storage.exists("endbox-credentials")


def test_tampered_image_fails_enrollment(world):
    ias, ca, image, _platform, _endbox, _storage = world
    evil_ca = RsaKeyPair(bits=1024, seed=b"evil")
    from repro.core.enclave_app import serialize_ca_public_key

    evil_image = image.tampered(ca_public_key=serialize_ca_public_key(evil_ca.public_key))
    platform = SgxPlatform(ias)
    evil = EndBoxEnclave.create(evil_image, platform)
    with pytest.raises(EnrollmentError, match="measurement"):
        provision_client(evil, platform, ca)


def test_quote_must_bind_claimed_key(world):
    _ias, ca, _image, platform, endbox, _storage = world
    endbox.gateway.ecall("generate_keypair")
    report = platform.create_report(endbox.enclave, b"some-other-key")
    quote = platform.quoting_enclave.quote(report)
    with pytest.raises(EnrollmentError, match="bind"):
        ca.enroll(quote, b"claimed-key-that-differs")


def test_restore_from_sealed_storage(world):
    _ias, ca, image, platform, endbox, storage = world
    cert = provision_client(endbox, platform, ca, storage)
    # simulate a restart: a fresh enclave instance of the same image
    endbox.enclave.destroy()
    fresh = EndBoxEnclave.create(image, platform)
    restored = restore_client(fresh, storage)
    assert restored == cert
    assert fresh.enclave.trusted_state["shared_config_key"] == ca.shared_config_key


def test_restore_fails_for_different_image(world):
    _ias, ca, image, platform, endbox, storage = world
    provision_client(endbox, platform, ca, storage)
    other_image = image.tampered(ca_public_key=b"different")
    other = EndBoxEnclave.create(other_image, platform)
    with pytest.raises(SealingError):
        restore_client(other, storage)


def test_provision_rejects_wrong_certificate(world):
    _ias, ca, _image, platform, endbox, _storage = world
    endbox.gateway.ecall("generate_keypair")
    evil_ca = RsaKeyPair(bits=1024, seed=b"evil")
    from repro.vpn.handshake import issue_certificate

    bogus = issue_certificate(evil_ca, "mallory", b"\x01" * 32)
    with pytest.raises(ProvisioningError):
        endbox.gateway.ecall("provision", bogus.serialize(), b"\x00" * 64)


# ----------------------------------------------------------------------
# packet processing ecall
# ----------------------------------------------------------------------
@pytest.fixture()
def initialized(world):
    _ias, ca, _image, platform, endbox, storage = world
    provision_client(endbox, platform, ca, storage)
    sim = Simulator()
    endbox.gateway.ecall("initialize", click_configs.nop_config(), "", sim=sim)
    return endbox, sim


def test_process_packet_accepts_and_flags_egress(initialized):
    endbox, _sim = initialized
    accepted, packet = endbox.gateway.ecall(
        "process_packet", udp_packet(), "egress", "encrypt+mac", True
    )
    assert accepted
    assert packet.tos == ENDBOX_PROCESSED_TOS


def test_process_packet_no_flag_when_disabled(initialized):
    endbox, _sim = initialized
    accepted, packet = endbox.gateway.ecall(
        "process_packet", udp_packet(), "egress", "encrypt+mac", False
    )
    assert accepted and packet.tos == 0


def test_flagged_ingress_bypasses_click(initialized):
    endbox, _sim = initialized
    before = endbox.enclave.trusted_state["click"].router.packets_processed
    accepted, _packet = endbox.gateway.ecall(
        "process_packet", udp_packet(tos=ENDBOX_PROCESSED_TOS), "ingress", "encrypt+mac", True
    )
    assert accepted
    assert endbox.enclave.trusted_state["click"].router.packets_processed == before


def test_process_packet_charges_ledger(initialized):
    endbox, _sim = initialized
    endbox.gateway.ledger.drain()
    endbox.gateway.ecall("process_packet", udp_packet(b"x" * 1000), "egress", "encrypt+mac", True)
    assert endbox.gateway.ledger.pending > 0


def test_interface_validator_rejects_garbage(initialized):
    endbox, _sim = initialized
    with pytest.raises(InterfaceViolation):
        endbox.gateway.ecall("process_packet", b"not-a-packet", "egress", "encrypt+mac", True)
    with pytest.raises(InterfaceViolation):
        endbox.gateway.ecall("process_packet", udp_packet(), "sideways", "encrypt+mac", True)


def test_firewall_config_drops_in_enclave(world):
    _ias, ca, _image, platform, endbox, storage = world
    provision_client(endbox, platform, ca, storage)
    endbox.gateway.ecall(
        "initialize",
        "f :: FromDevice(); fw :: IPFilter(deny dst port 23, allow all); t :: ToDevice(); f -> fw -> t;",
        "",
        sim=Simulator(),
    )
    accepted, _ = endbox.gateway.ecall("process_packet", udp_packet(dport=23), "egress", "encrypt+mac", True)
    assert not accepted
    accepted, _ = endbox.gateway.ecall("process_packet", udp_packet(dport=80), "egress", "encrypt+mac", True)
    assert accepted


# ----------------------------------------------------------------------
# configuration bundles (Fig 5 enclave side)
# ----------------------------------------------------------------------
def make_bundle(ca, version, config=None, encrypt=True, rules=""):
    publisher = ConfigPublisher(ca)
    return publisher.build_bundle(version, config or click_configs.nop_config(), rules, encrypt)


def test_apply_config_hotswaps_and_bumps_version(initialized, world):
    endbox, _sim = initialized
    _ias, ca, *_ = world
    bundle = make_bundle(
        ca,
        2,
        config="f :: FromDevice(); fw :: IPFilter(deny dst port 23, allow all); t :: ToDevice(); f -> fw -> t;",
    )
    version, timings = endbox.gateway.ecall("apply_config", bundle.blob)
    assert version == 2
    assert timings.hotswap_s > 0
    assert timings.decrypt_s > 0  # the bundle was encrypted
    accepted, _ = endbox.gateway.ecall("process_packet", udp_packet(dport=23), "egress", "encrypt+mac", True)
    assert not accepted


def test_apply_config_plaintext_isp_mode(initialized, world):
    endbox, _sim = initialized
    _ias, ca, *_ = world
    bundle = make_bundle(ca, 2, encrypt=False)
    version, timings = endbox.gateway.ecall("apply_config", bundle.blob)
    assert version == 2
    assert timings.decrypt_s == 0.0


def test_apply_config_rejects_rollback(initialized, world):
    endbox, _sim = initialized
    _ias, ca, *_ = world
    endbox.gateway.ecall("apply_config", make_bundle(ca, 5).blob)
    with pytest.raises(ConfigError, match="rollback"):
        endbox.gateway.ecall("apply_config", make_bundle(ca, 3).blob)
    with pytest.raises(ConfigError, match="rollback"):
        endbox.gateway.ecall("apply_config", make_bundle(ca, 5).blob)  # same version replay


def test_apply_config_rejects_unsigned(initialized, world):
    endbox, _sim = initialized
    _ias, ca, *_ = world
    bundle = make_bundle(ca, 2)
    import json

    obj = json.loads(bundle.blob.decode())
    obj["signature"] = str(int(obj["signature"]) + 1)
    with pytest.raises(ConfigError, match="signature"):
        endbox.gateway.ecall("apply_config", json.dumps(obj).encode())


def test_apply_config_rejects_wrong_ca(initialized, world):
    endbox, _sim = initialized
    evil_ias = IntelAttestationService(seed=b"other")
    evil_ca = CertificateAuthority(evil_ias, seed=b"evil-ca")
    bundle = make_bundle(evil_ca, 2)
    with pytest.raises(ConfigError, match="signature"):
        endbox.gateway.ecall("apply_config", bundle.blob)


def test_apply_config_updates_ruleset(initialized, world):
    endbox, _sim = initialized
    _ias, ca, *_ = world
    rules = 'alert udp any any -> any 5001 (msg:"x"; content:"forbidden"; sid:1;)'
    bundle = make_bundle(ca, 2, config=click_configs.idps_config(), rules=rules)
    endbox.gateway.ecall("apply_config", bundle.blob)
    accepted, _ = endbox.gateway.ecall(
        "process_packet", udp_packet(b"this is forbidden content"), "egress", "encrypt+mac", True
    )
    assert not accepted
    accepted, _ = endbox.gateway.ecall(
        "process_packet", udp_packet(b"clean"), "egress", "encrypt+mac", True
    )
    assert accepted


@pytest.mark.parametrize(
    "rule",
    ["deny dst port 23-22", "deny dst port 70000", "deny dst port 2x3", "deny src net 10.0.0.0/33"],
)
def test_apply_config_rejects_classifier_rule_that_cannot_match_or_parse(initialized, world, rule):
    endbox, _sim = initialized
    _ias, ca, *_ = world
    config = f"f :: FromDevice(); fw :: IPFilter({rule}, allow all); t :: ToDevice(); f -> fw -> t;"
    with pytest.raises(ConfigError, match="rejected before swap"):
        endbox.gateway.ecall("apply_config", make_bundle(ca, 2, config=config).blob)
    assert endbox.enclave.trusted_state["config_version"] == 1
    accepted, _ = endbox.gateway.ecall("process_packet", udp_packet(dport=23), "egress", "encrypt+mac", True)
    assert accepted  # the running NOP configuration still forwards


def test_apply_config_rejected_bundle_leaves_rules_and_graph_as_they_were(world):
    _ias, ca, _image, platform, endbox, storage = world
    provision_client(endbox, platform, ca, storage)
    installed = 'alert udp any any -> any 5001 (msg:"x"; content:"forbidden"; sid:1;)'
    endbox.gateway.ecall("initialize", click_configs.idps_config(), installed, sim=Simulator())
    state = endbox.enclave.trusted_state
    context_before = dict(state["click_context"])
    rejected = 'alert udp any any -> any 5001 (msg:"y"; content:"smuggled"; sid:9;)'
    bad_graph = "from :: FromDevice();\nx :: NoSuchElement();\nfrom -> x;\n"
    with pytest.raises(ConfigError, match="rejected before swap"):
        endbox.gateway.ecall("apply_config", make_bundle(ca, 2, config=bad_graph, rules=rejected).blob)
    with pytest.raises(ConfigError, match="rejected before swap"):
        endbox.gateway.ecall("apply_config", make_bundle(ca, 2, rules="this is not a rule").blob)
    assert state["click_context"] == context_before
    assert state["config_version"] == 1
    # a later bundle without rules text builds its IDSMatcher from the installed rules
    endbox.gateway.ecall("apply_config", make_bundle(ca, 3, config=click_configs.idps_config()).blob)
    assert [rule.sid for rule in state["click_context"]["ruleset"]] == [1]
    for payload, verdict in ((b"smuggled", True), (b"forbidden", False)):
        accepted, _ = endbox.gateway.ecall("process_packet", udp_packet(payload), "egress", "encrypt+mac", True)
        assert accepted == verdict


def test_simulation_mode_charges_no_transitions(world):
    ias, ca, image, _platform, _endbox, _storage = world
    platform = SgxPlatform(ias)
    sim_enclave = EndBoxEnclave.create(image, platform, mode=EnclaveMode.SIMULATION)
    provision_client(sim_enclave, platform, ca)
    sim_enclave.gateway.ecall("initialize", click_configs.nop_config(), "", sim=Simulator())
    sim_enclave.gateway.ledger.drain()
    sim_enclave.gateway.ecall("process_packet", udp_packet(b"y" * 1000), "egress", "encrypt+mac", True)
    hw_free = sim_enclave.gateway.ledger.pending
    # copies + crypto are still charged, but no transition costs
    model = default_cost_model()
    assert hw_free < model.enclave_transition

"""Cost-model and calibration tests: the fits must reproduce Fig 8."""

import pytest

from repro.costs import CostModel, default_cost_model
from repro.costs.calibration import (
    FIG8_PAPER_MBPS,
    fit_vanilla_pipeline,
    per_packet_times,
    predicted_throughput_mbps,
    report,
)
from repro.core.endbox_client import UNOPTIMIZED_TRANSITIONS
from repro.fleet import DeploymentSpec
from repro.netsim import IPv4Packet, UdpDatagram
from repro.vpn.channel import ProtectionMode
from repro.vpn.costing import (
    client_egress_cost,
    client_ingress_completion_cost,
    client_ingress_cost,
    crypto_cost,
    ingress_fragment_cost,
    server_click_attach_cost,
    server_egress_cost,
    server_packet_cost,
    standalone_click_cost,
)

ENC = ProtectionMode.ENCRYPT_AND_MAC
MAC = ProtectionMode.MAC_ONLY


@pytest.fixture()
def model():
    return default_cost_model()


def test_fragments_counting(model):
    assert model.fragments(100) == 1
    assert model.fragments(8900) == 1
    assert model.fragments(8901) == 2
    assert model.fragments(65535) == 8


def test_calibration_fit_matches_paper_within_tolerance():
    fixed, per_byte, per_frag = fit_vanilla_pipeline()
    assert 8e-6 < fixed < 13e-6
    assert 1.5e-9 < per_byte < 3e-9
    assert 0.5e-6 < per_frag < 2.5e-6
    for size, paper_mbps in FIG8_PAPER_MBPS["vanilla OpenVPN"]:
        fit = predicted_throughput_mbps(size, fixed, per_byte, per_frag)
        assert abs(fit - paper_mbps) / paper_mbps < 0.12, f"size {size}"


def test_calibration_report_renders():
    text = report()
    assert "per byte" in text and "65536" in text


def test_per_packet_times_are_consistent():
    times = dict(per_packet_times("EndBox SGX"))
    assert times[256] == pytest.approx(256 * 8 / 92e6)


def test_client_egress_cost_matches_fit_at_1500(model):
    # the decomposition must land near the fitted bottleneck time
    cost = client_egress_cost(model, 1500, ENC)
    assert cost == pytest.approx(15.07e-6, rel=0.02)


def test_server_capacity_lands_near_6_5_gbps(model):
    per_packet = server_packet_cost(model, 1500, ENC)
    capacity_gbps = 5 / per_packet * 1500 * 8 / 1e9  # 5 effective cores
    assert 6.0 < capacity_gbps < 7.0


def test_mac_only_cheaper_than_encrypt(model):
    assert crypto_cost(model, 1500, MAC) < crypto_cost(model, 1500, ENC)
    assert client_egress_cost(model, 1500, MAC) < client_egress_cost(model, 1500, ENC)


def test_fragment_plus_completion_equals_single_packet_cost(model):
    # for single-fragment packets the split accounting must equal the
    # aggregate formula exactly
    for size in (100, 1500, 8900):
        split = ingress_fragment_cost(model, size, ENC) + client_ingress_completion_cost(model, size)
        assert split == pytest.approx(client_ingress_cost(model, size, ENC))


def _endbox_client(setup, **spec_fields):
    """The one client of an unconnected single-client NOP world."""
    spec = DeploymentSpec(setup=setup, clients=1, seed="boundary-cost", **spec_fields)
    return spec.build().clients[0]


def test_enclave_boundary_cost_modes(model):
    # the real crossing: one process_packet ecall on a hardware enclave
    # costs the EENTER/EEXIT pair and the EPC tax more than the same
    # ecall on a simulation enclave, which pays the boundary copies alone
    packet = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(40000, 5001, bytes(1472)))
    charged = {}
    for setup in ("endbox_sgx", "endbox_sim"):
        gateway = _endbox_client(setup).endbox.gateway
        gateway.ledger.drain()
        gateway.ecall("process_packet", packet, "egress", ENC.value, True)
        charged[setup] = gateway.ledger.drain()
    assert charged["endbox_sgx"] - charged["endbox_sim"] == pytest.approx(
        2 * model.enclave_transition + len(packet) * model.epc_per_byte
    )
    # §V-G's unbatched price: without the single-ecall optimisation every
    # egress packet pays UNOPTIMIZED_TRANSITIONS transitions, not two
    costs = {}
    for optimized in (True, False):
        client = _endbox_client("endbox_sgx", single_ecall_optimization=optimized)
        costs[optimized] = client.process_egress(packet)[2]
    assert costs[False] - costs[True] == pytest.approx(
        (UNOPTIMIZED_TRANSITIONS - 2) * model.enclave_transition, rel=1e-9
    )


def test_click_attach_cost_grows_with_oversubscription(model):
    calm = server_click_attach_cost(model, 1500, 0)
    busy = server_click_attach_cost(model, 1500, 100)
    assert busy > calm


def test_standalone_click_single_thread_limit(model):
    # one Click process must cap near the paper's 5.5 Gbps at 1500 B
    per_packet = standalone_click_cost(model, 1500)
    gbps = 1500 * 8 / per_packet / 1e9
    assert 4.8 < gbps < 6.2


def test_server_egress_mirrors_ingress_scale(model):
    egress = server_egress_cost(model, 1500, ENC)
    ingress = server_packet_cost(model, 1500, ENC)
    assert egress == pytest.approx(ingress, rel=0.15)


def test_scaled_returns_modified_copy(model):
    faster = model.scaled(aes_per_byte=0.0)
    assert faster.aes_per_byte == 0.0
    assert model.aes_per_byte > 0
    assert faster.hmac_per_byte == model.hmac_per_byte


def test_cost_model_is_deterministic_dataclass():
    assert CostModel() == CostModel()
    assert repr(CostModel()) == repr(CostModel())

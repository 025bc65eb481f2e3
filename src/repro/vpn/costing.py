"""Per-packet CPU cost of the VPN pipelines.

These functions assemble :class:`~repro.costs.model.CostModel` primitives
into the per-packet prices of each pipeline stage.  They are the single
place where the calibrated decomposition lives; both the vanilla client
and the EndBox client (which adds enclave terms on top) use them.

See ``repro/costs/model.py`` for the calibration story.
"""

from __future__ import annotations

from typing import Optional

from repro.costs.model import CostModel
from repro.vpn.channel import ProtectionMode


def crypto_cost(model: CostModel, size: int, mode: ProtectionMode) -> float:
    """Symmetric protection (or verification) of a ``size``-byte payload."""
    cost = model.hmac(size)
    if mode is ProtectionMode.ENCRYPT_AND_MAC:
        cost += model.aes(size)
    return cost


def client_egress_cost(model: CostModel, size: int, mode: ProtectionMode) -> float:
    """Vanilla client: tun read -> protect -> UDP send (per inner packet)."""
    fragments = model.fragments(size)
    return (
        model.tun_read_syscall
        + model.vpn_client_fixed
        + model.memcpy(size)
        + crypto_cost(model, size, mode)
        + fragments * model.udp_send_per_fragment
        + size * model.udp_copy_per_byte
    )


def client_ingress_cost(model: CostModel, size: int, mode: ProtectionMode) -> float:
    """Vanilla client: UDP recv -> verify/decrypt -> tun write.

    Single-datagram packets only; multi-fragment tunnel packets charge
    :func:`ingress_fragment_cost` per datagram plus
    :func:`client_ingress_completion_cost` once (same totals for n=1).
    """
    fragments = model.fragments(size)
    return (
        fragments * model.udp_recv_per_fragment
        + size * model.udp_copy_per_byte
        + crypto_cost(model, size, mode)
        + model.memcpy(size)
        + model.vpn_client_fixed
        + model.tun_write_syscall
    )


def ingress_fragment_cost(
    model: CostModel, frag_bytes: int, mode: Optional[ProtectionMode]
) -> float:
    """Per received tunnel datagram: socket recv + copy (+ its crypto).

    Pass ``mode=None`` when crypto happens elsewhere (EndBox decrypts the
    whole packet inside the enclave in its single per-packet ecall).
    """
    cost = model.udp_recv_per_fragment + frag_bytes * model.udp_copy_per_byte
    if mode is not None:
        cost += crypto_cost(model, frag_bytes, mode)
    return cost


def client_ingress_completion_cost(model: CostModel, size: int) -> float:
    """Charged once per reassembled inner packet on the client."""
    return model.memcpy(size) + model.vpn_client_fixed + model.tun_write_syscall


def server_completion_cost(model: CostModel, size: int) -> float:
    """Charged once per reassembled inner packet on the server."""
    return (
        model.memcpy(size)
        + model.vpn_server_fixed
        + model.tun_write_syscall
        + model.kernel_forward_fixed
    )


def server_egress_cost(model: CostModel, size: int, mode: ProtectionMode) -> float:
    """Server process: protect and send one inner packet to a client."""
    fragments = model.fragments(size)
    return (
        model.tun_read_syscall
        + model.vpn_server_fixed
        + model.memcpy(size)
        + crypto_cost(model, size, mode)
        + fragments * model.udp_send_per_fragment
        + size * model.udp_copy_per_byte
    )


def server_packet_cost(model: CostModel, size: int, mode: ProtectionMode) -> float:
    """Server process: one tunnelled packet in either direction."""
    fragments = model.fragments(size)
    return (
        fragments * model.udp_recv_per_fragment
        + size * model.udp_copy_per_byte
        + crypto_cost(model, size, mode)
        + model.memcpy(size)
        + model.vpn_server_fixed
        + model.tun_write_syscall
        + model.kernel_forward_fixed
    )


def server_click_attach_cost(model: CostModel, size: int, oversubscription: float) -> float:
    """Extra cost of pushing a packet through an attached Click instance.

    ``oversubscription`` is the number of runnable daemon processes
    beyond the machine's effective cores; the OpenVPN<->Click per-packet
    hand-off degrades with it (context switching), which is what bends
    the OpenVPN+Click curve downward in Fig 10.
    """
    return (
        model.click_ipc_attach_fixed
        + size * model.click_fetch_per_byte
        + model.click_ipc_oversub_cost * max(0.0, oversubscription)
    )


def standalone_click_cost(model: CostModel, size: int) -> float:
    """Per-packet cost of the standalone (no VPN) Click deployment."""
    return model.click_standalone_fixed + size * model.click_fetch_per_byte

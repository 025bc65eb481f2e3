"""Using old or invalid middlebox configurations (§V-A).

Attacks:

1. replaying a previously valid (older) configuration bundle,
2. feeding a configuration signed by the wrong authority,
3. forging a ping that announces a *lower* version (to stop updates),
4. keeping the old configuration past the grace period.

Defences: version numbers are embedded in the signed bundle and must
increase monotonically inside the enclave; pings are MAC'd with session
keys; after the grace period the server drops traffic from (and refuses
reconnects of) stale clients.
"""

from __future__ import annotations

from typing import List

from repro.attacks.common import AttackOutcome, AttackReport
from repro.click import configs as click_configs
from repro.core.ca import CertificateAuthority
from repro.core.config_update import ConfigPublisher
from repro.core.enclave_app import ConfigError
from repro.fleet import DeploymentSpec
from repro.netsim.traffic import UdpSink, UdpTrafficSource
from repro.sgx.attestation import IntelAttestationService
from repro.vpn.ping import PingError, PingMessage
from repro.vpn.protocol import OP_PING, VpnPacket


def run_rollback_attacks(seed: str = "atk-rollback") -> List[AttackReport]:
    """Mount the configuration-rollback attacks; returns reports."""
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", seed=seed, ping_interval=0.2
    ).build()
    world.connect_all()
    client = world.clients[0]
    publisher = world.publisher
    reports = []

    # publish and apply version 2, keeping the version-1 bundle around
    old_bundle = publisher.build_bundle(1, click_configs.nop_config(), encrypt=True)
    new_bundle = publisher.build_bundle(2, click_configs.firewall_config(), encrypt=True)
    publisher.publish(new_bundle, world.config_server, world.server, grace_period_s=2.0)
    world.sim.run(until=world.sim.now + 3.0)
    assert client.config_version == 2, "setup: the regular update must succeed"

    # ------------------------------------------------------------------
    # 1. replay the old configuration
    # ------------------------------------------------------------------
    try:
        client.endbox.gateway.ecall("apply_config", old_bundle.blob)
        outcome = AttackOutcome.SUCCEEDED
        details = "enclave accepted a rollback"
    except ConfigError as exc:
        outcome = AttackOutcome.DEFEATED
        details = str(exc)
    reports.append(
        AttackReport(
            name="rollback: replay old config",
            goal="run version 1 after version 2 was deployed",
            outcome=outcome,
            defence="monotonic version check inside the enclave",
            details=details,
        )
    )

    # ------------------------------------------------------------------
    # 2. configuration signed by a rogue authority
    # ------------------------------------------------------------------
    rogue_ca = CertificateAuthority(IntelAttestationService(seed=b"rogue-ias"), seed=b"rogue")
    rogue_bundle = ConfigPublisher(rogue_ca).build_bundle(99, click_configs.nop_config(), encrypt=False)
    try:
        client.endbox.gateway.ecall("apply_config", rogue_bundle.blob)
        outcome = AttackOutcome.SUCCEEDED
        details = "enclave accepted a foreign signature"
    except ConfigError as exc:
        outcome = AttackOutcome.DEFEATED
        details = str(exc)
    reports.append(
        AttackReport(
            name="rollback: unauthorised config",
            goal="install a configuration not signed by the deployment CA",
            outcome=outcome,
            defence="CA signature verified against the measured in-enclave key",
            details=details,
        )
    )

    # ------------------------------------------------------------------
    # 3. forged downgrade announcement ping
    # ------------------------------------------------------------------
    forged = PingMessage(config_version=1, grace_period_s=0.0)
    body = forged.serialize(b"\x00" * 16)  # attacker has no session hmac key
    try:
        PingMessage.parse(body, client.secrets.server_hmac)
        outcome = AttackOutcome.SUCCEEDED
        details = "forged ping validated"
    except PingError as exc:
        outcome = AttackOutcome.DEFEATED
        details = str(exc)
    # also deliver it over the wire: the client must reject it silently
    rejected_before = client.packets_rejected
    attacker_sock = client.host.stack.udp_socket()
    packet = VpnPacket(OP_PING, client.session_id, 0, body)
    attacker_sock.sendto(packet.serialize(), client.host.stack.interfaces[0].address, 0)
    reports.append(
        AttackReport(
            name="rollback: forged version announcement",
            goal="make the client believe an older version is current",
            outcome=outcome,
            defence="ping messages are authenticated with session keys (validated in-enclave)",
            details=details,
        )
    )

    # ------------------------------------------------------------------
    # 4. ignore the update and keep sending after the grace period
    # ------------------------------------------------------------------
    stale_world = DeploymentSpec(
        clients=1,
        setup="endbox_sgx",
        use_case="NOP",
        seed=seed + "-stale",
        with_config_server=False,  # the client *cannot* update
        ping_interval=0.3,
    ).build()
    stale_world.connect_all()
    stale_client = stale_world.clients[0]
    stale_world.server.announce_config(2, grace_period_s=0.5)
    sink = UdpSink(stale_world.internal, 6100)
    source = UdpTrafficSource(
        stale_client.host, stale_world.internal.address, 6100, rate_bps=2e6, packet_bytes=400
    )
    source.start()
    stale_world.sim.run(until=stale_world.sim.now + 2.0)
    at_grace_expiry = sink.packets
    stale_world.sim.run(until=stale_world.sim.now + 1.0)
    source.stop()
    leaked_after = sink.packets - at_grace_expiry
    reports.append(
        AttackReport(
            name="rollback: stale client past grace period",
            goal="keep communicating with the old configuration",
            outcome=AttackOutcome.DEFEATED if leaked_after == 0 else AttackOutcome.SUCCEEDED,
            defence="server blocks data from sessions announcing stale versions",
            details=f"{leaked_after} packets leaked after grace expiry",
        )
    )
    return reports

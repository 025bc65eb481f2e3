"""The EndBox client: a partitioned VPN client with in-enclave Click.

Architecture (Fig 3): the untrusted part keeps doing packet
encapsulation, fragmentation and socket I/O; the security-sensitive part
— data-channel cryptography and all middlebox functions — runs inside
the enclave behind a single data-plane ecall per packet (§IV-A).

On top of the vanilla client this adds:

* per-packet processing through the in-enclave Click graph (egress and
  ingress), with packets rejected by the middlebox never leaving /
  reaching the machine,
* the client-to-client QoS flagging optimisation (0xEB, §IV-A),
* TLS session-key intake from the custom OpenSSL via the management
  interface (§III-D),
* the configuration-update protocol (Fig 5): ping announcements trigger
  an asynchronous fetch from the configuration server, in-enclave
  signature verification + decryption, hot-swap, and a version bump in
  subsequent pings.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config_update import UpdateTimings
from repro.core.enclave_app import ConfigError, EndBoxEnclave
from repro.core.provisioning import restore_client
from repro.http.client import HttpClient, HttpError
from repro.netsim.addresses import IPv4Address
from repro.netsim.host import Host
from repro.netsim.packet import IPv4Packet
from repro.sgx.enclave import EnclaveError, EnclaveMode
from repro.vpn.costing import (
    client_egress_cost,
    client_ingress_completion_cost,
    crypto_cost,
    ingress_fragment_cost,
)
from repro.vpn.openvpn import OpenVpnClient
from repro.vpn.ping import PingMessage

#: enclave transitions per packet without the single-ecall optimisation
#: (one ecall per crypto call plus memory-management ocalls, §IV-A/V-G)
UNOPTIMIZED_TRANSITIONS = 26

#: most packets one batched enclave crossing carries
ECALL_BATCH_LIMIT = 32

#: bounded retry-with-backoff for the Fig 5 fetch (steps 5-9): the
#: configuration file server may be down mid-rollout.  The first retry
#: waits the backoff, and each later one twice the one before.
CONFIG_FETCH_ATTEMPTS = 6
CONFIG_FETCH_BACKOFF_S = 0.25


class EndBoxClient(OpenVpnClient):
    """OpenVPN client + enclave-guarded middlebox functions."""

    def __init__(
        self,
        host: Host,
        server_addr: IPv4Address,
        endbox: EndBoxEnclave,
        ca_public_key,
        click_config: str,
        ruleset_text: str = "",
        config_server: Optional[Tuple[IPv4Address, int]] = None,
        single_ecall_optimization: bool = True,
        c2c_flagging: bool = True,
        ecall_batching: bool = False,
        **vpn_kwargs,
    ) -> None:
        if ecall_batching and not single_ecall_optimization:
            raise ValueError("ecall batching builds on the single-ecall optimisation")
        self.endbox = endbox
        #: batch bursts of data packets into one enclave crossing (§IV-A
        #: taken further; opt-in so the default deployment keeps the
        #: paper's one-ecall-per-packet accounting bit-for-bit)
        self.ecall_batching = ecall_batching
        if ecall_batching:
            self.burst_limit = ECALL_BATCH_LIMIT
        self.ecall_bursts = 0
        self.ecall_burst_packets = 0
        # all enclave state flows through the gateway: the credentials
        # the host-side handshake needs are exported via an ecall, never
        # read out of trusted_state directly (enclave-boundary lint EB103)
        credentials = endbox.gateway.ecall("export_handshake_credentials")
        if credentials is None:
            raise ValueError("enclave is not provisioned (run provision_client first)")
        identity_key, certificate = credentials
        endbox.gateway.ecall("set_cost_model", vpn_kwargs.get("cost_model"), keep_existing=True)
        super().__init__(
            host,
            server_addr,
            identity_key,
            certificate,
            ca_public_key,
            **vpn_kwargs,
        )
        endbox.gateway.ecall("set_cost_model", self.model)
        self.single_ecall_optimization = single_ecall_optimization
        self.c2c_flagging = c2c_flagging
        self.config_server = config_server
        self.click_config = click_config
        self.ruleset_text = ruleset_text
        self.packets_dropped_by_click = 0
        #: packets dropped, failing closed, because the crossing raised
        self.packets_dropped_enclave_error = 0
        #: end of the current Click hot-swap window (see ``_swapping``)
        self._swap_until = 0.0
        self.update_timings: list = []
        self.update_in_progress = False
        self.config_fetch_retries = 0
        self.config_fetch_failures = 0
        self.endbox.gateway.ecall("initialize", click_config, ruleset_text, sim=self.sim)
        self.management.on_tls_keys(self._register_tls_session)
        self.on_server_announcement = self._handle_announcement

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _swapping(self) -> bool:
        """True while the in-enclave Click graph is mid-hot-swap: packets
        in this window are dropped (exactly one ping in the Fig 11
        experiment) and counted as Click drops."""
        return self.sim.now < self._swap_until

    def _egress_cost(self, packet: IPv4Packet) -> float:
        """Host-side egress work for one packet: the crypto runs in the enclave."""
        size = len(packet)
        return (
            client_egress_cost(self.model, size, self.mode)
            - crypto_cost(self.model, size, self.mode)
            + self.model.partition_fixed
        )

    def _ingress_cost(self, packet: IPv4Packet) -> float:
        """Host-side completion work for one reassembled inner packet.

        Per-datagram recv costs were charged as fragments arrived
        (without crypto: decryption happens in the enclave crossing).
        """
        return client_ingress_completion_cost(self.model, len(packet)) + self.model.partition_fixed

    def _enclave_packet(self, packet: IPv4Packet, direction: str) -> Tuple[bool, IPv4Packet, float]:
        """One ``process_packet`` crossing; counts the packet if dropped."""
        if self._swapping():
            self.packets_dropped_by_click += 1
            return False, packet, self.model.partition_fixed
        gateway = self.endbox.gateway
        try:
            accepted, packet = gateway.ecall(
                "process_packet", packet, direction, self.mode.value, self.c2c_flagging
            )
        except EnclaveError:
            self.packets_dropped_enclave_error += 1
            return False, packet, self.model.partition_fixed
        if not accepted:
            self.packets_dropped_by_click += 1
        extra_transitions = 0.0
        if (
            not self.single_ecall_optimization
            and self.endbox.enclave.mode is EnclaveMode.HARDWARE
        ):
            extra_transitions = (UNOPTIMIZED_TRANSITIONS - 2) * self.model.enclave_transition
        return accepted, packet, gateway.ledger.drain() + extra_transitions

    def _enclave_batch(self, packets, direction: str):
        """One ``ecall_batch`` crossing for a burst; returns (results, cost).

        Every packet runs the scalar ``process_packet`` handler, so the
        per-packet work (boundary copies, EPC tax, crypto, Click) is
        charged exactly as in the scalar path; only the EENTER/EEXIT
        transition pair is paid once for the burst — that single
        crossing is what the §V-G ablation reads off the ledger.  Inside
        a hot-swap window, or without an enclave, nothing crosses: no
        results come back, and every packet is counted as dropped at the
        scalar path's per-packet price.
        """
        if self._swapping():
            self.packets_dropped_by_click += len(packets)
            return [], len(packets) * self.model.partition_fixed
        gateway = self.endbox.gateway
        calls = [(p, direction, self.mode.value, self.c2c_flagging) for p in packets]
        try:
            results = gateway.ecall_batch("process_packet", calls)
        except EnclaveError:
            self.packets_dropped_enclave_error += len(packets)
            return [], len(packets) * self.model.partition_fixed
        self.ecall_bursts += 1
        self.ecall_burst_packets += len(packets)
        self.packets_dropped_by_click += sum(1 for accepted, _ in results if not accepted)
        return results, gateway.ledger.drain()

    def process_egress(self, packet: IPv4Packet) -> Tuple[bool, IPv4Packet, float]:
        """Per-packet egress hook; returns (accept, packet, cpu_seconds)."""
        base = self._egress_cost(packet)
        accepted, packet, enclave_cost = self._enclave_packet(packet, "egress")
        return accepted, packet, base + enclave_cost

    def process_ingress(self, packet: IPv4Packet) -> Tuple[bool, IPv4Packet, float]:
        base = self._ingress_cost(packet)
        accepted, packet, enclave_cost = self._enclave_packet(packet, "ingress")
        return accepted, packet, base + enclave_cost

    def fragment_crypto_mode(self):
        return None  # EndBox decrypts inside the enclave, not per datagram

    # ------------------------------------------------------------------
    # batched data plane (opt-in, §IV-A batching in burst form)
    # ------------------------------------------------------------------
    def _handle_egress_run(self, inners, done) -> None:
        """A run of egress packets from the base worker (at most
        ``burst_limit``).  A run of one keeps the scalar path (``ecall``
        and ``process_egress``), so ``ecall_bursts`` counts only real
        bursts; a longer run crosses the enclave once and is charged
        once, then seals each accepted packet."""
        if len(inners) == 1:
            self._handle_egress(inners[0], done)
            return
        base = sum(self._egress_cost(inner) for inner in inners)
        results, enclave_cost = self._enclave_batch(inners, "egress")
        self._charge_then(base + enclave_cost, self._send_accepted, (results, done))

    def _send_accepted(self, step) -> None:
        results, done = step
        for accepted, inner in results:
            if accepted:
                self._send_inner(inner)
        done(None)

    def _handle_data_run(self, packets, done) -> None:
        """A run of DATA datagrams: open and reassemble each in arrival
        order, then cross once for the completed inner packets."""
        if len(packets) == 1:
            self._handle_data(packets[0], done)
            return
        tunnel = self.tunnel
        fragment_cost = 0.0
        inners = []
        for packet in packets:
            plaintext = tunnel.open(packet)
            if plaintext is None:
                self.packets_rejected += 1
                continue
            fragment_cost += ingress_fragment_cost(
                self.model, len(plaintext), self.fragment_crypto_mode()
            )
            try:
                inner = tunnel.reassemble(packet, plaintext)
            except ValueError:
                self.packets_rejected += 1
                continue
            if inner is not None:
                inners.append(inner)
        if not inners:
            self._charge_then(fragment_cost, done, None)
            return
        sizes = [len(inner) for inner in inners]
        base = sum(self._ingress_cost(inner) for inner in inners)
        results, enclave_cost = self._enclave_batch(inners, "ingress")
        self._charge_then(
            fragment_cost + base + enclave_cost, self._write_accepted, (results, sizes, done)
        )

    def _write_accepted(self, step) -> None:
        results, sizes, done = step
        for (accepted, inner), size in zip(results, sizes):
            if accepted:
                self.inner_bytes_received += size
                self.tun.write(inner)
        done(None)

    # ------------------------------------------------------------------
    # TLS key intake (§III-D)
    # ------------------------------------------------------------------
    def _register_tls_session(self, session) -> None:
        # the session object is a handle; the key material it carries is
        # priced by the handshake itself, so no boundary copy is charged
        self.endbox.gateway.ecall("register_tls_session", session)

    # ------------------------------------------------------------------
    # configuration updates (Fig 5, client side)
    # ------------------------------------------------------------------
    def _handle_announcement(self, ping: PingMessage) -> None:
        if ping.config_version <= self.config_version or self.update_in_progress:
            return
        if self.config_server is None:
            return
        self.update_in_progress = True
        self.sim.process(
            self._fetch_and_apply(ping.config_version), name=f"{self.host.name}.config-update"
        )

    def _fetch_and_apply(self, version: Optional[int]):
        """Fig 5 steps 5-9: fetch, decrypt, hot-swap, confirm.

        ``version=None`` fetches ``/configs/latest`` — the recovery path
        for a client locked out after its grace period expired (it does
        not know the current version number, only that its own is old).

        The fetch is retried with bounded exponential backoff: the file
        server may be briefly down mid-rollout, and the paper's protocol
        only re-announces at the next ping, which under churn can leave
        clients permanently stale.
        """
        try:
            server_addr, server_port = self.config_server
            path = "/configs/latest" if version is None else f"/configs/v{version}"
            http = HttpClient(self.host)
            fetch_started = self.sim.now
            response = None
            backoff = CONFIG_FETCH_BACKOFF_S
            for attempt in range(CONFIG_FETCH_ATTEMPTS):
                if attempt:
                    self.config_fetch_retries += 1
                    yield self.sim.timeout(backoff)
                    backoff *= 2.0
                if self.suspended:
                    return  # crashed mid-update; state is rebuilt on restore
                try:
                    candidate = yield self.sim.process(
                        http.get(server_addr, path, port=server_port)
                    )
                except HttpError:
                    continue
                if candidate.status == 200 and candidate.body:
                    response = candidate
                    break
            if response is None:
                self.config_fetch_failures += 1
                return  # give up; the next ping announcement retries
            if self.suspended:
                return
            fetch_s = self.sim.now - fetch_started
            try:
                applied_version, swap = self.endbox.gateway.ecall("apply_config", response.body)
            except ConfigError:
                return
            # decrypt + hotswap happen inside the enclave; the packet path
            # is unavailable while the graph is rebuilt (Fig 11's lost ping)
            self._swap_until = self.sim.now + swap.decrypt_s + swap.hotswap_s
            yield from self._charge(self.endbox.gateway.ledger.drain() + swap.hotswap_s)
            self.config_version = applied_version
            self.update_timings.append(
                UpdateTimings(
                    version=applied_version,
                    fetch_s=fetch_s,
                    decrypt_s=swap.decrypt_s,
                    hotswap_s=swap.hotswap_s,
                )
            )
            self._send_ping()  # step 9: prove the successful update
        finally:
            self.update_in_progress = False

    def apply_config_now(self, blob: bytes):
        """Process generator: apply a fetched bundle immediately.

        Used by experiments that need deterministic swap timing (Fig 11);
        the normal path is the announcement-triggered
        :meth:`_fetch_and_apply`.
        """
        applied_version, swap = self.endbox.gateway.ecall("apply_config", blob)
        self._swap_until = self.sim.now + swap.decrypt_s + swap.hotswap_s
        yield from self._charge(self.endbox.gateway.ledger.drain() + swap.hotswap_s)
        self.config_version = applied_version
        self._send_ping()
        return swap

    # ------------------------------------------------------------------
    # recovery paths (fault injection, §III-E edge cases)
    # ------------------------------------------------------------------
    def on_connected(self, settings: dict) -> None:
        """Pin a direct host route to the configuration file server.

        The file server is publicly reachable (§III-E), so fetches go
        straight over the LAN instead of through the tunnel — exactly
        like the pinned route for the VPN server's own outer address.
        The post-grace lockout recovery depends on this: it must fetch
        while the tunnel is down, when a tunnel-routed request (and its
        reply to the tunnel source address) would be blackholed.
        """
        super().on_connected(settings)
        if self.config_server is None:
            return
        physical = None
        for itf in self.host.stack.interfaces:
            if itf is not self.tun and itf.address is not None:
                physical = itf
                break
        if physical is not None:
            self.host.stack.add_route(f"{self.config_server[0]}/32", physical)

    def on_reconnect_failed(self, exc) -> None:
        """Recover from post-grace lockout (admission denied on reconnect).

        A client that was offline past its grace deadline is refused
        readmission with its stale version number.  The way back in is
        to fetch the *latest* configuration from the file server, apply
        it in-enclave, and retry the handshake with a current version at
        the next DPD tick.
        """
        if "rejected" not in str(exc):
            return
        if self.config_server is None or self.update_in_progress:
            return
        self.update_in_progress = True
        self.sim.process(
            self._fetch_and_apply(None), name=f"{self.host.name}.config-recover"
        )

    def restart_enclave(self, platform, storage) -> None:
        """The §III-C restart of a destroyed enclave on its SGX platform.

        A fresh enclave is created from the same measured image and the
        credentials sealed in ``storage`` are unsealed into it (no new
        remote attestation).  The in-RAM Click graph does not survive,
        so the enclave is re-initialised with the provisioning-time
        configuration and the version number drops back to 1 — the
        grace-period machinery (or the lockout-recovery fetch) brings
        the client forward again.
        """
        old = self.endbox.enclave
        endbox = EndBoxEnclave.create(old.image, platform, mode=old.mode)
        restore_client(endbox, storage)
        self.endbox = endbox
        endbox.gateway.ecall("set_cost_model", self.model)
        endbox.gateway.ecall("initialize", self.click_config, self.ruleset_text, sim=self.sim)
        self.config_version = 1
        self._swap_until = 0.0

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def click_handler(self, element: str, handler: str) -> str:
        """Read a Click handler inside the enclave (diagnostics)."""
        return self.endbox.gateway.ecall("read_handler", element, handler)

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
from repro.http.client import HttpClient, HttpError
from repro.netsim.addresses import IPv4Address
from repro.netsim.host import Host
from repro.netsim.packet import IPv4Packet, parse_ipv4
from repro.sgx.enclave import EnclaveMode
from repro.vpn.costing import (
    client_egress_cost,
    client_ingress_completion_cost,
    crypto_cost,
    ingress_fragment_cost,
)
from repro.vpn.openvpn import OpenVpnClient
from repro.vpn.ping import PingMessage
from repro.vpn.protocol import OP_DATA, VpnPacket

#: enclave transitions per packet without the single-ecall optimisation
#: (one ecall per crypto call plus memory-management ocalls, §IV-A/V-G)
UNOPTIMIZED_TRANSITIONS = 26

#: most packets one batched enclave crossing carries
ECALL_BATCH_LIMIT = 32


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
        config_fetch_attempts: int = 6,
        config_fetch_backoff_s: float = 0.25,
        **vpn_kwargs,
    ) -> None:
        if ecall_batching and not single_ecall_optimization:
            raise ValueError("ecall batching builds on the single-ecall optimisation")
        self.endbox = endbox
        #: batch bursts of data packets into one enclave crossing (§IV-A
        #: taken further; opt-in so the default deployment keeps the
        #: paper's one-ecall-per-packet accounting bit-for-bit)
        self.ecall_batching = ecall_batching
        self.ecall_bursts = 0
        self.ecall_burst_packets = 0
        # all enclave state flows through the gateway: the credentials
        # the host-side handshake needs are exported via an ecall, never
        # read out of trusted_state directly (enclave-boundary lint EB103)
        credentials = endbox.gateway.ecall("export_handshake_credentials")
        if credentials is None:
            raise ValueError("enclave is not provisioned (run provision_client first)")
        identity_key, certificate = credentials
        endbox.gateway.ecall(
            "set_cost_model", vpn_kwargs.get("cost_model"), keep_existing=True, payload_bytes=0
        )
        super().__init__(
            host,
            server_addr,
            identity_key,
            certificate,
            ca_public_key,
            **vpn_kwargs,
        )
        endbox.gateway.ecall("set_cost_model", self.model, payload_bytes=0)
        self.single_ecall_optimization = single_ecall_optimization
        self.c2c_flagging = c2c_flagging
        self.config_server = config_server
        self.click_config = click_config
        self.ruleset_text = ruleset_text
        self.packets_dropped_by_click = 0
        self.update_timings: list = []
        self.update_in_progress = False
        # bounded retry-with-backoff for the Fig 5 fetch (steps 5-9):
        # the configuration file server may be down mid-rollout
        if config_fetch_attempts < 1:
            raise ValueError("config_fetch_attempts must be at least 1")
        self.config_fetch_attempts = config_fetch_attempts
        self.config_fetch_backoff_s = config_fetch_backoff_s
        self.config_fetch_retries = 0
        self.config_fetch_failures = 0
        self.endbox.gateway.ecall(
            "initialize", click_config, ruleset_text, sim=self.sim, payload_bytes=len(click_config)
        )
        self.management.on_tls_keys(self._register_tls_session)
        self.on_server_announcement = self._handle_announcement

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _enclave_packet(self, packet: IPv4Packet, direction: str) -> Tuple[bool, IPv4Packet, float]:
        gateway = self.endbox.gateway
        if self.sim.now < getattr(self, "_swap_until", 0.0):
            # the Click graph is mid-hot-swap: packets in this window are
            # dropped (the caller counts them), exactly one ping in the
            # Fig 11 experiment
            return False, packet, self.model.partition_fixed
        accepted, packet = gateway.ecall(
            "process_packet",
            packet,
            direction,
            self.mode.value,
            self.c2c_flagging,
            payload_bytes=len(packet),
        )
        extra_transitions = 0.0
        if (
            not self.single_ecall_optimization
            and self.endbox.enclave.mode is EnclaveMode.HARDWARE
        ):
            extra_transitions = (UNOPTIMIZED_TRANSITIONS - 2) * self.model.enclave_transition
        return accepted, packet, gateway.ledger.drain() + extra_transitions

    def process_egress(self, packet: IPv4Packet) -> Tuple[bool, IPv4Packet, float]:
        """Per-packet egress hook; returns (accept, packet, cpu_seconds)."""
        size = len(packet)
        base = (
            client_egress_cost(self.model, size, self.mode)
            - crypto_cost(self.model, size, self.mode)  # crypto moved into the enclave
            + self.model.partition_fixed
        )
        accepted, packet, enclave_cost = self._enclave_packet(packet, "egress")
        if not accepted:
            self.packets_dropped_by_click += 1
        return accepted, packet, base + enclave_cost

    def process_ingress(self, packet: IPv4Packet) -> Tuple[bool, IPv4Packet, float]:
        size = len(packet)
        # per-datagram recv costs were charged as fragments arrived
        # (without crypto: decryption happens in the single ecall below)
        base = client_ingress_completion_cost(self.model, size) + self.model.partition_fixed
        accepted, packet, enclave_cost = self._enclave_packet(packet, "ingress")
        if not accepted:
            self.packets_dropped_by_click += 1
        return accepted, packet, base + enclave_cost

    def fragment_crypto_mode(self):
        return None  # EndBox decrypts inside the enclave, not per datagram

    # ------------------------------------------------------------------
    # batched data plane (opt-in, §IV-A batching in burst form)
    # ------------------------------------------------------------------
    def _worker(self):
        if not self.ecall_batching:
            yield from super()._worker()
            return
        # burst-draining worker: after waking up for one work item, drain
        # the contiguous run of same-kind items already queued (bounded by
        # ``ECALL_BATCH_LIMIT``) and cross the enclave boundary once for
        # the whole run.  Peeking keeps mixed bursts in arrival order —
        # a control packet never jumps ahead of the data burst before it.
        inbox = self._work_inbox
        while True:
            kind, item, epoch = yield inbox.get()
            if kind == "tx":
                batch = [item]
                while len(batch) < ECALL_BATCH_LIMIT:
                    pending = inbox.peek()
                    if pending is None or pending[0] != "tx":
                        break
                    batch.append(inbox.try_get()[1])
                if len(batch) == 1:
                    yield from self._handle_egress(item)
                else:
                    yield from self._handle_egress_batch(batch)
                continue
            if epoch != self.channel_epoch:
                # superseded-key item (see OpenVpnClient._worker): drop
                # deliberately rather than feed the fresh replay window
                self.packets_dropped_stale += 1
                continue
            if isinstance(item, VpnPacket) and item.opcode == OP_DATA:
                batch = [item]
                while len(batch) < ECALL_BATCH_LIMIT:
                    pending = inbox.peek()
                    if (
                        pending is None
                        or pending[0] == "tx"
                        or pending[2] != self.channel_epoch
                        or not isinstance(pending[1], VpnPacket)
                        or pending[1].opcode != OP_DATA
                    ):
                        break
                    batch.append(inbox.try_get()[1])
                if len(batch) == 1:
                    yield from self._handle_data(item)
                else:
                    yield from self._handle_data_batch(batch)
            else:
                self._handle_ping(item)

    def _enclave_batch(self, packets, direction: str):
        """One ``ecall_batch`` crossing for a burst; returns (results, cost).

        Every packet runs the scalar ``process_packet`` handler, so the
        per-packet work (boundary copies, EPC tax, crypto, Click) is
        charged exactly as in the scalar path; only the EENTER/EEXIT
        transition pair is paid once for the burst — that single
        crossing is what the §V-G ablation reads off the ledger.
        """
        gateway = self.endbox.gateway
        calls = [(p, direction, self.mode.value, self.c2c_flagging) for p in packets]
        results = gateway.ecall_batch(
            "process_packet", calls, payload_bytes=sum(len(p) for p in packets)
        )
        self.ecall_bursts += 1
        self.ecall_burst_packets += len(packets)
        return results, gateway.ledger.drain()

    def _handle_egress_batch(self, inners):
        """Burst form of ``_handle_egress``: one crossing, then seal all."""
        if self.sim.now < getattr(self, "_swap_until", 0.0):
            self.packets_dropped_by_click += len(inners)
            yield from self._charge(len(inners) * self.model.partition_fixed)
            return
        base = 0.0
        for inner in inners:
            size = len(inner)
            base += (
                client_egress_cost(self.model, size, self.mode)
                - crypto_cost(self.model, size, self.mode)
                + self.model.partition_fixed
            )
        results, enclave_cost = self._enclave_batch(inners, "egress")
        yield from self._charge(base + enclave_cost)
        to_protect = []
        for accepted, inner in results:
            if not accepted:
                self.packets_dropped_by_click += 1
                continue
            inner_bytes = inner.serialize()
            self.inner_bytes_sent += len(inner_bytes)
            frag_id, pieces = self.fragmenter.split(inner_bytes)
            for index, piece in enumerate(pieces):
                packet = VpnPacket(
                    opcode=OP_DATA,
                    session_id=self.session_id,
                    packet_id=self._take_packet_id(),
                    frag_id=frag_id,
                    frag_index=index,
                    frag_count=len(pieces),
                )
                to_protect.append((packet, piece))
        for packet in self.tx_channel.protect_batch(to_protect):
            self.sock.sendto(packet.serialize(), self.server_addr, self.server_port)

    def _handle_data_batch(self, packets):
        """Burst form of ``_handle_data``: authenticate the burst, then
        run every completed inner packet through one enclave crossing."""
        fresh = []
        for packet in packets:
            if self.replay.would_accept(packet.packet_id):
                fresh.append(packet)
            else:
                self.packets_rejected += 1
        fragment_cost = 0.0
        inners = []
        for packet, plaintext in zip(fresh, self.rx_channel.unprotect_batch(fresh)):
            # record an id only once its datagram authenticated; an
            # in-burst duplicate of a genuine datagram is refused here
            if plaintext is None or not self.replay.check_and_update(packet.packet_id):
                self.packets_rejected += 1
                continue
            fragment_cost += ingress_fragment_cost(
                self.model, len(plaintext), self.fragment_crypto_mode()
            )
            inner_bytes = self.reassembler.add(
                packet.session_id, packet.frag_id, packet.frag_index, packet.frag_count, plaintext
            )
            if inner_bytes is None:
                continue
            try:
                inners.append(parse_ipv4(inner_bytes))
            except ValueError:
                self.packets_rejected += 1
        if self.sim.now < getattr(self, "_swap_until", 0.0):
            self.packets_dropped_by_click += len(inners)
            yield from self._charge(
                fragment_cost + len(inners) * self.model.partition_fixed
            )
            return
        if not inners:
            yield from self._charge(fragment_cost)
            return
        base = sum(
            client_ingress_completion_cost(self.model, len(inner)) + self.model.partition_fixed
            for inner in inners
        )
        results, enclave_cost = self._enclave_batch(inners, "ingress")
        yield from self._charge(fragment_cost + base + enclave_cost)
        for accepted, inner in results:
            if not accepted:
                self.packets_dropped_by_click += 1
                continue
            self.inner_bytes_received += len(inner)
            self.tun.write(inner)

    # ------------------------------------------------------------------
    # TLS key intake (§III-D)
    # ------------------------------------------------------------------
    def _register_tls_session(self, session) -> None:
        # the session object is a handle; the key material it carries is
        # priced by the handshake itself, so no boundary copy is charged
        self.endbox.gateway.ecall("register_tls_session", session, payload_bytes=0)

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
            backoff = self.config_fetch_backoff_s
            for attempt in range(self.config_fetch_attempts):
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
                applied_version, swap = self.endbox.gateway.ecall(
                    "apply_config", response.body, payload_bytes=len(response.body)
                )
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
        applied_version, swap = self.endbox.gateway.ecall(
            "apply_config", blob, payload_bytes=len(blob)
        )
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

    def rebuild_enclave(self, endbox: EndBoxEnclave) -> None:
        """Install a freshly created + restored enclave after a crash.

        The sealed credentials survive (restore_client re-attests via
        unsealing, §III-C); the in-RAM Click graph does not, so the
        enclave is re-initialised with the provisioning-time
        configuration and the version number drops back to 1 — the
        grace-period machinery (or the lockout-recovery fetch) brings
        the client forward again.
        """
        self.endbox = endbox
        endbox.gateway.ecall("set_cost_model", self.model, payload_bytes=0)
        endbox.gateway.ecall(
            "initialize",
            self.click_config,
            self.ruleset_text,
            sim=self.sim,
            payload_bytes=len(self.click_config),
        )
        self.config_version = 1
        self._swap_until = 0.0

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def click_handler(self, element: str, handler: str) -> str:
        """Read a Click handler inside the enclave (diagnostics)."""
        return self.endbox.gateway.ecall("read_handler", element, handler, payload_bytes=0)

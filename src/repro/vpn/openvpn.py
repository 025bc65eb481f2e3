"""OpenVPN-like client and server daemons over the simulated network.

The client owns a TUN device: packets the host routes into the tunnel
are read, protected on the data channel, fragmented to the MTU and sent
as UDP datagrams; inbound datagrams take the reverse path.  The server
terminates many sessions, enforces certificate-based admission, replay
windows and (for EndBox) configuration-version policy, and routes inner
packets via its host stack — including hairpin client-to-client
forwarding.

Threading model: OpenVPN is single-threaded, and the paper runs *one
server process per client*.  Each client has one worker process doing
all per-packet work, and the server has one worker per session; workers
charge calibrated CPU costs (``repro.vpn.costing``) against their host's
core pool, which is how throughput saturation, CPU-usage curves and
multi-process contention emerge.

Both ends of a session seal and open DATA datagrams through one
:class:`Tunnel`: it numbers, fragments, protects and serializes on the
way out, and checks the replay window, verifies, decrypts and
reassembles on the way in.

Subclass hooks (used by EndBox in :mod:`repro.core`):

* ``process_egress(packet)`` / ``process_ingress(packet)`` on the client
  return ``(accept, packet, cpu_seconds)``,
* ``session_packet_hook(session, packet, inbound)`` on the server allows
  per-session middlebox attachment (the OpenVPN+Click baseline),
* ``admit_session(cert, version)`` / ``data_policy(session)`` on the
  server implement admission and grace-period enforcement (§III-E).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.costs.model import CostModel, default_cost_model
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import hmac_sha256, hmac_verify
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.x25519 import X25519PrivateKey
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.host import Host
from repro.netsim.packet import IPv4Packet, parse_ipv4
from repro.netsim.tun import TunDevice
from repro.sim import FifoStore, Process
from repro.sim.engine import Interrupt
from repro.vpn.channel import ChannelError, DataChannel, ProtectionMode
from repro.vpn.costing import (
    client_egress_cost,
    client_ingress_completion_cost,
    ingress_fragment_cost,
    server_click_attach_cost,
    server_completion_cost,
    server_egress_cost,
)
from repro.vpn.fragment import Fragmenter, Reassembler
from repro.vpn.handshake import (
    Certificate,
    ClientKeyExchange,
    HandshakeError,
    ServerKeyExchange,
    SessionSecrets,
)
from repro.vpn.management import ManagementInterface
from repro.vpn.ping import PingError, PingMessage
from repro.telemetry.registry import Registry
from repro.vpn.protocol import (
    OP_CONTROL_HELLO,
    OP_CONTROL_REPLY,
    OP_DATA,
    OP_PING,
    OP_REJECT,
    ProtocolError,
    VpnPacket,
    new_data_packet,
)
from repro.vpn.replay import ReplayWindow

OP_SESSION_CONFIG = 6

VPN_PORT = 1194

#: the largest inner packet a tunnel carries (IPv4's total-length limit)
MAX_INNER_PACKET = 65535


class VpnError(RuntimeError):
    """Connection-level VPN failure."""


class Tunnel:
    """One session's data channel, as either end holds it.

    It owns the session id, both :class:`DataChannel` directions, the
    replay window, the fragmenter, the reassembler and the next packet
    id.  The gateway, the vanilla client and EndBox's burst path all
    seal and open datagrams through it, so each step has one copy.  No
    method touches the simulator: callers charge the CPU for the work.
    """

    def __init__(self, session_id: int, tx_channel: DataChannel, rx_channel: DataChannel) -> None:
        self.session_id = session_id
        self.tx_channel = tx_channel
        self.rx_channel = rx_channel
        self.replay = ReplayWindow()
        self.fragmenter = Fragmenter()
        # no group needs more pieces than the largest inner packet splits into
        self.reassembler = Reassembler(
            max_count=-(-MAX_INNER_PACKET // self.fragmenter.max_payload)
        )
        self.next_packet_id = 1

    def seal(self, inner_bytes: bytes) -> List[bytes]:
        """Split, number and protect one inner packet; its wire datagrams."""
        frag_id, pieces = self.fragmenter.split(inner_bytes)
        count = len(pieces)
        protect = self.tx_channel.protect
        wires = []
        for index, piece in enumerate(pieces):
            packet = new_data_packet(self.session_id, self.next_packet_id, frag_id, index, count)
            self.next_packet_id += 1
            wires.append(protect(packet, piece).serialize())
        return wires

    def open(self, packet: VpnPacket) -> Optional[bytes]:
        """Authenticate one DATA datagram; its plaintext, or None if rejected.

        The packet id is tested against the replay window before the MAC
        and recorded only after it: a replayed copy costs no MAC
        verification, and a forged id never moves the window.
        """
        if not self.replay.would_accept(packet.packet_id):
            return None
        try:
            plaintext = self.rx_channel.unprotect(packet)
        except ChannelError:
            return None
        self.replay.check_and_update(packet.packet_id)
        return plaintext

    def reassemble(self, packet: VpnPacket, plaintext: bytes) -> Optional[IPv4Packet]:
        """Add one opened fragment; the parsed inner packet once complete.

        Raises ``ValueError`` (a :class:`FragmentError` among them) on
        fragment fields that contradict their group or on an inner
        packet that does not parse.
        """
        inner_bytes = self.reassembler.add(
            packet.session_id, packet.frag_id, packet.frag_index, packet.frag_count, plaintext
        )
        if inner_bytes is None:
            return None
        return parse_ipv4(inner_bytes)


class VpnSession:
    """Server-side state for one connected client."""

    def __init__(
        self,
        server: "OpenVpnServer",
        session_id: int,
        secrets: SessionSecrets,
        certificate: Certificate,
        outer_addr: IPv4Address,
        outer_port: int,
        tunnel_ip: IPv4Address,
        mode: ProtectionMode,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.secrets = secrets
        self.certificate = certificate
        self.outer_addr = outer_addr
        self.outer_port = outer_port
        self.tunnel_ip = tunnel_ip
        self.tunnel = Tunnel(
            session_id,
            tx_channel=DataChannel(secrets.server_cipher, secrets.server_hmac, mode),
            rx_channel=DataChannel(secrets.client_cipher, secrets.client_hmac, mode),
        )
        self.established = False
        self.client_version = 0
        #: a session that never hears a ping ages from its creation
        self.last_ping_time = server.sim.now
        self.inner_bytes_in = 0  # decrypted payload bytes from the client
        self.inner_bytes_out = 0
        self.packets_dropped_policy = 0
        #: (router, ledger) of an attached Click (OpenVPN+Click baseline)
        self.middlebox = None
        #: the per-session "OpenVPN process" work queue
        self.inbox = FifoStore(server.sim, name=f"session-{session_id}.inbox")
        self.worker = server.sim.process(server._session_worker(self), name=f"session-{session_id}")


class OpenVpnServer:
    """The VPN concentrator at the edge of the managed network."""

    def __init__(
        self,
        host: Host,
        identity_key: X25519PrivateKey,
        certificate: Certificate,
        ca_public_key: RsaPublicKey,
        tunnel_network: str = "10.8.0.0/24",
        port: int = VPN_PORT,
        cost_model: Optional[CostModel] = None,
        protection_mode: ProtectionMode = ProtectionMode.ENCRYPT_AND_MAC,
        ping_interval: float = 1.0,
        charge_cpu: bool = True,
        seed: bytes = b"vpn-server",
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.identity_key = identity_key
        self.certificate = certificate
        self.ca_public_key = ca_public_key
        self.port = port
        self.model = cost_model or default_cost_model()
        self.mode = protection_mode
        self.ping_interval = ping_interval
        self.charge_cpu = charge_cpu
        self._drbg = HmacDrbg(seed)
        self.tunnel_network = IPv4Network(tunnel_network)
        self._next_host_index = 2  # .1 is the server's tunnel address
        self.server_tunnel_ip = self.tunnel_network.host(1)
        self.tun: Optional[TunDevice] = None
        self.sock = None
        self.sessions_by_peer: Dict[Tuple[IPv4Address, int], VpnSession] = {}
        self.sessions_by_tunnel_ip: Dict[IPv4Address, VpnSession] = {}
        self._next_session = 1
        _registry = Registry.current()
        self._tm_ctrl_packets = _registry.counter("vpn.control.packets_sent")
        self._tm_ctrl_bytes = _registry.counter("vpn.control.bytes_sent")
        self._tm_stale_rejected = _registry.counter("fleet.gateway.stale_rejected")
        # EndBox configuration enforcement state (§III-E)
        self.current_config_version = 1
        self.grace_deadline: Optional[float] = None
        self.grace_period_s = 0.0
        #: per-announcement grace deadlines: announced version -> absolute
        #: deadline.  A client stuck below version v is bound by the
        #: *earliest* deadline among announcements newer than its version,
        #: so a later rollout can never re-admit a client whose earlier
        #: grace already expired.
        self._grace_deadlines: Dict[int, float] = {}
        #: tripwire for chaos experiments: data packets admitted from a
        #: client whose applicable grace deadline had already passed
        #: (must stay zero; see run_chaos_rollout)
        self.stale_admitted_after_grace = 0
        #: fault-injection state: a "restarted" server loses its session
        #: tables and ignores traffic while down
        self.down = False
        self.restarts = 0
        self.packets_dropped_down = 0
        #: oversubscription input for the OpenVPN+Click hand-off penalty:
        #: runnable daemon processes beyond the effective core count
        self.oversubscription = 0.0
        self.packets_rejected = 0
        self.handshakes_completed = 0
        #: sessions retired because their client went silent
        self.sessions_retired = 0
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the component's simulation processes."""
        if self._running:
            raise VpnError("server already started")
        self._running = True
        if self.tun is None:
            self.tun = self.host.add_tun(
                self.server_tunnel_ip, self.tunnel_network, name=f"{self.host.name}.tun0"
            )
        self.tun.on_read(self._on_tun_packet)
        self.sock = self.host.stack.udp_socket(self.port)
        self.sock.on_receive(self._on_datagram)
        self.sim.process(self._ping_loop(), name="vpn-server-ping")

    def _charge(self, seconds: float):
        if self.charge_cpu and seconds > 0:
            yield from self.host.execute(seconds)

    # ------------------------------------------------------------------
    # admission & policy hooks
    # ------------------------------------------------------------------
    def admit_session(self, certificate: Certificate, client_version: int) -> bool:
        """Admission control; EndBox adds attestation/version gating."""
        return True

    def grace_deadline_for(self, client_version: int) -> Optional[float]:
        """Effective grace deadline for a client stuck on ``client_version``.

        The client is bound by every announcement newer than its version,
        so the *minimum* of those deadlines applies; ``None`` means the
        client is current (or no grace was ever announced) and is always
        admitted.
        """
        earliest: Optional[float] = None
        for version, deadline in self._grace_deadlines.items():
            if version > client_version and (earliest is None or deadline < earliest):
                earliest = deadline
        return earliest

    def data_policy(self, session: VpnSession) -> bool:
        """Per-packet policy: enforce the configuration grace period."""
        if session.client_version >= self.current_config_version:
            return True
        deadline = self.grace_deadline_for(session.client_version)
        if deadline is None or self.sim.now < deadline:
            return True
        return False

    def session_packet_hook(
        self, session: VpnSession, packet: IPv4Packet, inbound: bool
    ) -> Tuple[bool, IPv4Packet, float]:
        """Optional per-session middlebox (the OpenVPN+Click baseline)."""
        if session.middlebox is None:
            return True, packet, 0.0
        router, ledger = session.middlebox
        accepted, packet = router.process(packet)
        cost = ledger.drain() + server_click_attach_cost(
            self.model, len(packet), self.oversubscription
        )
        return accepted, packet, cost

    def announce_config(self, version: int, grace_period_s: float) -> None:
        """Management entry point for the administrator (Fig 5, step 2).

        Each announcement starts its *own* grace clock; it never extends
        the clock of a previous rollout.  ``grace_deadline`` keeps the
        latest announcement's deadline for observability, but admission
        decisions use :meth:`grace_deadline_for`.
        """
        if version <= self.current_config_version:
            raise VpnError(
                f"config versions must increase (current {self.current_config_version}, got {version})"
            )
        self.current_config_version = version
        self.grace_period_s = grace_period_s
        self.grace_deadline = self.sim.now + grace_period_s
        self._grace_deadlines[version] = self.grace_deadline

    # ------------------------------------------------------------------
    # fault injection: crash-restart with session-table loss
    # ------------------------------------------------------------------
    def begin_outage(self) -> None:
        """Crash the server process: sessions are lost, traffic ignored.

        Models a VPN-concentrator restart (repro.faults ServerRestart):
        per-session workers are killed and both session tables cleared —
        clients recover through dead-peer detection.  Configuration
        state (version, grace deadlines) is management-plane state and
        survives, as it would in a config store.
        """
        if self.down:
            return
        self.down = True
        for session in list(self.sessions_by_peer.values()):
            session.worker.interrupt("server restart")
        self.sessions_by_peer.clear()
        self.sessions_by_tunnel_ip.clear()

    def end_outage(self) -> None:
        """Bring the restarted server back up (empty session tables)."""
        if not self.down:
            return
        self.down = False
        self.restarts += 1

    # ------------------------------------------------------------------
    # fleet migration
    # ------------------------------------------------------------------
    def close_sessions(self, outer_addr: IPv4Address) -> None:
        """Close every session of the peer at ``outer_addr`` (a client
        migrating to another gateway of the fleet).

        Each session's worker is interrupted and both lookup tables drop
        the session, so the gateway refuses the peer's traffic until it
        handshakes again.
        """
        for peer, session in list(self.sessions_by_peer.items()):
            if peer[0] == outer_addr:
                self._drop_session(peer, session, "migrated")

    def _drop_session(
        self, peer: Tuple[IPv4Address, int], session: VpnSession, reason: str
    ) -> None:
        session.worker.interrupt(reason)
        del self.sessions_by_peer[peer]
        self.sessions_by_tunnel_ip.pop(session.tunnel_ip, None)

    # ------------------------------------------------------------------
    # dispatch handlers (cheap demux; CPU work happens in session workers)
    # ------------------------------------------------------------------
    def _on_datagram(
        self, payload: bytes, src: IPv4Address, src_port: int, _ip: IPv4Packet
    ) -> None:
        """The socket's receive handler."""
        if self.down:
            self.packets_dropped_down += 1
            return
        try:
            packet = VpnPacket.parse(payload)
        except ProtocolError:
            return
        if packet.opcode == OP_CONTROL_HELLO:
            self.sim.process(self._handle_hello(packet, src, src_port))
            return
        session = self.sessions_by_peer.get((src, src_port))
        if session is None:
            self.packets_rejected += 1
            return
        session.inbox.put(("rx", packet))

    def _on_tun_packet(self, inner: IPv4Packet) -> None:
        """The TUN device's read handler."""
        if self.down:
            self.packets_dropped_down += 1
            return
        session = self.sessions_by_tunnel_ip.get(inner.dst)
        if session is None or not session.established:
            return
        session.inbox.put(("tx", inner))

    def _ping_loop(self):
        """Keepalive: ping every established session, and retire one
        whose client has not pinged for 12 intervals (OpenVPN's
        server-side keepalive, twice the client's ping-restart), as a
        crashed client's old port would otherwise be pinged for good."""
        silent_limit = 12 * self.ping_interval
        while True:
            yield self.sim.timeout(self.ping_interval)
            if self.down:
                continue
            for peer, session in list(self.sessions_by_peer.items()):
                if self.sim.now - session.last_ping_time >= silent_limit:
                    self._drop_session(peer, session, "silent")
                    self.sessions_retired += 1
                elif session.established:
                    self._send_ping(session)

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------
    def _handle_hello(self, packet: VpnPacket, src: IPv4Address, src_port: int):
        yield from self._charge(self.model.asymmetric_op)
        exchange = ServerKeyExchange(self.identity_key, self.certificate, self.ca_public_key, self._drbg)
        try:
            reply, secrets, client_cert, client_version = exchange.process_hello(packet.body)
        except HandshakeError:
            self.packets_rejected += 1
            return
        if not self.admit_session(client_cert, client_version):
            self.packets_rejected += 1
            self.sock.sendto(
                VpnPacket(OP_REJECT, 0, 0, b"admission denied").serialize(), src, src_port
            )
            return
        existing = self.sessions_by_peer.get((src, src_port))
        if existing is not None:
            existing.worker.interrupt("superseded")
            self.sessions_by_tunnel_ip.pop(existing.tunnel_ip, None)
            tunnel_ip = existing.tunnel_ip
        else:
            tunnel_ip = self.tunnel_network.host(self._next_host_index)
            self._next_host_index += 1
        session = VpnSession(
            server=self,
            session_id=self._next_session,
            secrets=secrets,
            certificate=client_cert,
            outer_addr=src,
            outer_port=src_port,
            tunnel_ip=tunnel_ip,
            mode=self.mode,
        )
        self._next_session += 1
        session.client_version = client_version
        self.sessions_by_peer[(src, src_port)] = session
        self.sessions_by_tunnel_ip[tunnel_ip] = session
        self.handshakes_completed += 1
        self.on_session_created(session)
        wire = VpnPacket(OP_CONTROL_REPLY, session.session_id, 0, reply).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self.sock.sendto(wire, src, src_port)

    def on_session_created(self, session: VpnSession) -> None:
        """Hook: subclasses attach middleboxes / record state here."""

    # ------------------------------------------------------------------
    # per-session worker ("one OpenVPN process per client")
    # ------------------------------------------------------------------
    def _session_worker(self, session: VpnSession):
        while True:
            kind, item = yield session.inbox.get()
            if kind == "rx":
                yield from self._session_rx(session, item)
            else:
                yield from self._session_tx(session, item)

    def _session_rx(self, session: VpnSession, packet: VpnPacket):
        if packet.opcode == OP_PING:
            yield from self._session_ping(session, packet)
            return
        if packet.opcode != OP_DATA:
            return
        if not session.established:
            self.packets_rejected += 1
            return
        plaintext = session.tunnel.open(packet)
        if plaintext is None:
            self.packets_rejected += 1
            return
        # per-datagram work: socket recv, copy, verify+decrypt
        yield from self._charge(ingress_fragment_cost(self.model, len(plaintext), self.mode))
        try:
            inner = session.tunnel.reassemble(packet, plaintext)
        except ValueError:
            self.packets_rejected += 1
            return
        if inner is None:
            return
        size = len(inner)
        if not self.data_policy(session):
            session.packets_dropped_policy += 1
            self.packets_rejected += 1
            self._tm_stale_rejected.inc()
            yield from self._charge(self.model.vpn_server_fixed)
            return
        deadline = self.grace_deadline_for(session.client_version)
        if deadline is not None and self.sim.now >= deadline:
            # tripwire: a (possibly overridden) data_policy admitted a
            # stale client past its grace deadline — chaos experiments
            # assert this stays zero
            self.stale_admitted_after_grace += 1
        accepted, inner, middlebox_cost = self.session_packet_hook(session, inner, inbound=True)
        yield from self._charge(server_completion_cost(self.model, size) + middlebox_cost)
        if not accepted:
            return
        session.inner_bytes_in += size
        self.deliver_inner(session, inner)

    def deliver_inner(self, session: VpnSession, inner: IPv4Packet) -> None:
        """Route a decrypted inner packet into the managed network."""
        self.host.stack.inject(inner, self.tun)

    def _session_tx(self, session: VpnSession, inner: IPv4Packet):
        accepted, inner, middlebox_cost = self.session_packet_hook(session, inner, inbound=False)
        inner_bytes = inner.serialize()
        yield from self._charge(
            server_egress_cost(self.model, len(inner_bytes), self.mode) + middlebox_cost
        )
        if not accepted:
            return
        session.inner_bytes_out += len(inner_bytes)
        for wire in session.tunnel.seal(inner_bytes):
            self.sock.sendto(wire, session.outer_addr, session.outer_port)

    def _session_ping(self, session: VpnSession, packet: VpnPacket):
        try:
            ping = PingMessage.parse(packet.body, session.secrets.client_hmac)
        except PingError:
            self.packets_rejected += 1
            return
        yield from self._charge(self.model.vpn_server_fixed)
        session.client_version = max(session.client_version, ping.config_version)
        session.last_ping_time = self.sim.now
        if not session.established:
            session.established = True
            self._send_session_config(session)
            self.on_session_established(session)
        self._send_ping(session)

    def on_session_established(self, session: VpnSession) -> None:
        """Hook: called once the client confirmed the handshake."""

    # ------------------------------------------------------------------
    # sending helpers
    # ------------------------------------------------------------------
    def _send_session_config(self, session: VpnSession) -> None:
        body = json.dumps(
            {
                "tunnel_ip": str(session.tunnel_ip),
                "server_tunnel_ip": str(self.server_tunnel_ip),
                "subnet": str(self.tunnel_network),
                "config_version": self.current_config_version,
            }
        ).encode()
        tag = hmac_sha256(session.secrets.server_hmac, b"session-config", body)[:16]
        wire = VpnPacket(
            OP_SESSION_CONFIG, session.session_id, 0, body + tag
        ).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self.sock.sendto(wire, session.outer_addr, session.outer_port)

    def _send_ping(self, session: VpnSession) -> None:
        ping = PingMessage(
            config_version=self.current_config_version,
            grace_period_s=self.grace_period_s,
            timestamp_ns=int(self.sim.now * 1e9),
        )
        wire = VpnPacket(
            OP_PING, session.session_id, 0, ping.serialize(session.secrets.server_hmac)
        ).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self.sock.sendto(wire, session.outer_addr, session.outer_port)


class OpenVpnClient:
    """The vanilla VPN client (one per client machine)."""

    #: most queued work items of one kind the worker hands its run
    #: handlers at once; the vanilla client handles each on its own
    burst_limit = 1

    def __init__(
        self,
        host: Host,
        server_addr: IPv4Address,
        identity_key: X25519PrivateKey,
        certificate: Certificate,
        ca_public_key: RsaPublicKey,
        server_port: int = VPN_PORT,
        server_name: str = "",
        cost_model: Optional[CostModel] = None,
        protection_mode: ProtectionMode = ProtectionMode.ENCRYPT_AND_MAC,
        ping_interval: float = 1.0,
        charge_cpu: bool = True,
        config_version: int = 1,
        tunnel_routes: Optional[List[str]] = None,
        seed: bytes = b"vpn-client",
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.server_addr = IPv4Address(server_addr)
        self.server_port = server_port
        self.server_name = server_name
        self.identity_key = identity_key
        self.certificate = certificate
        self.ca_public_key = ca_public_key
        self.model = cost_model or default_cost_model()
        self.mode = protection_mode
        self.ping_interval = ping_interval
        self.charge_cpu = charge_cpu
        self.config_version = config_version
        self.tunnel_routes = list(tunnel_routes or [])
        self._drbg = HmacDrbg(seed + host.name.encode())
        self.management = ManagementInterface(self.sim, self.model, host)
        self.tun: Optional[TunDevice] = None
        self.tunnel_ip: Optional[IPv4Address] = None
        self.sock = None
        self.session_id = 0
        self.secrets: Optional[SessionSecrets] = None
        #: the data channel of the current key generation
        self.tunnel: Optional[Tunnel] = None
        self._control_inbox = FifoStore(self.sim, name=f"{host.name}.vpn-control")
        _registry = Registry.current()
        self._tm_ctrl_packets = _registry.counter("vpn.control.packets_sent")
        self._tm_ctrl_bytes = _registry.counter("vpn.control.bytes_sent")
        self._work_inbox = FifoStore(self.sim, name=f"{host.name}.vpn-work")
        self.connected_event = self.sim.event("vpn-connected")
        self.inner_bytes_sent = 0
        self.inner_bytes_received = 0
        self.packets_rejected = 0
        self.pings_received = 0
        #: monotone data-channel generation: bumped each time a key
        #: exchange installs fresh channels; queued work items tagged
        #: with an older epoch are dropped deliberately instead of being
        #: fed to the new replay window/keys
        self.channel_epoch = 0
        self.packets_dropped_stale = 0
        #: fault-injection state: a "crashed" client stops reading its
        #: sockets/TUN and skips keepalive/DPD until resumed
        self.suspended = False
        #: datagrams a crashed client's work in flight did not send
        self.packets_dropped_suspended = 0
        self.crashes = 0
        self.on_server_announcement: Optional[Callable[[PingMessage], None]] = None
        self._started = False
        # dead-peer detection (OpenVPN's keepalive/ping-restart behaviour)
        self.dpd_timeout: float = 6.0 * ping_interval
        self.last_server_rx: float = 0.0
        self.reconnects = 0
        #: the dead-peer-detection process, once connected
        self._dpd: Optional[Process] = None
        #: the process running the re-handshake in flight, if any: the
        #: DPD loop, or the one a retarget started
        self._handshake: Optional[Process] = None
        #: the physical (pre-tunnel) route toward the server, kept so a
        #: fleet migration can pin a host route for a *new* gateway
        self._physical_route = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin connecting; processes run until the simulation ends."""
        if self._started:
            raise VpnError("client already started")
        self._started = True
        self.sock = self.host.stack.udp_socket()
        self.sock.on_receive(self._on_datagram)
        self.sim.process(self._connect_loop(), name=f"{self.host.name}.vpn-connect")

    def _charge(self, seconds: float):
        if self.charge_cpu and seconds > 0:
            yield from self.host.execute(seconds)

    # ------------------------------------------------------------------
    # dispatch: one receive handler feeding control + worker queues
    # ------------------------------------------------------------------
    def _on_datagram(
        self, payload: bytes, src: IPv4Address, _port: int, _ip: IPv4Packet
    ) -> None:
        """The socket's receive handler."""
        # like OpenVPN without --float, only the current server is
        # heard: a datagram still in flight from the gateway a
        # migration left must not pass for the new one's liveness
        if self.suspended or src != self.server_addr:
            return
        try:
            packet = VpnPacket.parse(payload)
        except ProtocolError:
            return
        self.last_server_rx = self.sim.now
        if packet.opcode in (OP_CONTROL_REPLY, OP_REJECT, OP_SESSION_CONFIG):
            self._control_inbox.put(packet)
        elif packet.opcode in (OP_DATA, OP_PING):
            self._work_inbox.put(("rx", packet, self.channel_epoch))

    def _await_control(self, opcodes, timeout: float):
        """Event-driven wait for a control packet, raced against a timeout.

        Blocks on the control :class:`FifoStore` instead of polling it,
        so a long outage costs two events per wait rather than one every
        5 ms (which used to flood the event queue and distort
        event-count telemetry).  A getter that loses the race, or whose
        handshake a retarget interrupts, is withdrawn via
        :meth:`FifoStore.cancel_get` so it cannot swallow a later control
        packet.
        """
        deadline = self.sim.now + timeout
        while True:
            packet = self._control_inbox.try_get()
            while packet is not None:
                if packet.opcode in opcodes:
                    return packet
                packet = self._control_inbox.try_get()  # discard stale
            remaining = deadline - self.sim.now
            if remaining <= 0:
                return None
            get_event = self._control_inbox.get()
            try:
                yield self.sim.any_of([get_event, self.sim.timeout(remaining)])
            finally:
                if not get_event.triggered:
                    self._control_inbox.cancel_get(get_event)
            if not get_event.triggered:
                return None
            packet = get_event.value
            if packet.opcode in opcodes:
                return packet
            # stale control message: discard and keep waiting

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def _do_key_exchange(self, attempt_label: bytes):
        """Process generator: run the control-channel handshake.

        On success, installs fresh secrets and a fresh tunnel and returns
        the authenticated session-config dict; raises VpnError otherwise.
        """
        exchange = ClientKeyExchange(
            self.identity_key,
            self.certificate,
            self.ca_public_key,
            self._drbg.child(b"handshake-" + attempt_label),
            server_name=self.server_name,
        )
        hello = exchange.hello(self.config_version)
        reply = None
        for _attempt in range(10):
            yield from self._charge(self.model.asymmetric_op)
            wire = VpnPacket(OP_CONTROL_HELLO, 0, 0, hello).serialize()
            self._tm_ctrl_packets.inc()
            self._tm_ctrl_bytes.inc(len(wire))
            self._send(wire)
            reply = yield from self._await_control((OP_CONTROL_REPLY, OP_REJECT), timeout=1.0)
            if reply is not None:
                break
        if reply is None:
            raise VpnError("handshake timed out")
        if reply.opcode == OP_REJECT:
            raise VpnError(f"server rejected session: {reply.body.decode()}")
        try:
            exchange.process_reply(reply.body)
        except HandshakeError as exc:
            raise VpnError(str(exc)) from exc
        self.secrets = exchange.secrets
        self.session_id = reply.session_id
        self.tunnel = Tunnel(
            self.session_id,
            tx_channel=DataChannel(self.secrets.client_cipher, self.secrets.client_hmac, self.mode),
            rx_channel=DataChannel(self.secrets.server_cipher, self.secrets.server_hmac, self.mode),
        )
        # any data packet still queued for the worker belongs to the
        # previous tunnel; bump the epoch so it is dropped (and counted)
        # instead of polluting the fresh replay window
        self.channel_epoch += 1
        # the key-confirmation ping doubles as the client Finished message
        self._send_ping()
        config = yield from self._await_control((OP_SESSION_CONFIG,), timeout=2.0)
        if config is None:
            raise VpnError("no session config received")
        body, tag = config.body[:-16], config.body[-16:]
        if not hmac_verify(self.secrets.server_hmac, b"session-config", body, tag):
            raise VpnError("session config failed authentication")
        return json.loads(body.decode())

    def _connect_loop(self):
        try:
            settings = yield from self._do_key_exchange(b"initial")
        except VpnError as exc:
            self.connected_event.fail(exc)
            return
        self.tunnel_ip = IPv4Address(settings["tunnel_ip"])
        subnet = IPv4Network(settings["subnet"])
        # Pin a host route for the VPN server itself before any tunnel
        # routes shadow the LAN (otherwise outer datagrams would loop
        # into the tunnel) — what OpenVPN's redirect-gateway does.
        physical = self.host.stack.route_for(self.server_addr)
        self._physical_route = physical
        self.tun = self.host.add_tun(self.tunnel_ip, subnet, name=f"{self.host.name}.tun0")
        self.tun.on_read(self._on_tun_packet)
        if physical is not None:
            self.host.stack.add_route(f"{self.server_addr}/32", physical)
        for route in self.tunnel_routes:
            self.host.stack.add_route(route, self.tun)
        self.host.stack.set_preferred_source(self.tunnel_ip)
        self.on_connected(settings)
        self.last_server_rx = self.sim.now
        self.sim.process(self._worker(), name=f"{self.host.name}.vpn-worker")
        self.sim.process(self._ping_loop(), name=f"{self.host.name}.vpn-ping")
        self._dpd = self.sim.process(self._dpd_loop(), name=f"{self.host.name}.vpn-dpd")
        self.connected_event.succeed(self)

    # ------------------------------------------------------------------
    # dead-peer detection (keepalive/ping-restart)
    # ------------------------------------------------------------------
    def _dpd_loop(self):
        """Re-handshake when the server has been silent too long."""
        while True:
            yield self.sim.timeout(self.ping_interval)
            if self.suspended:
                continue
            silent_for = self.sim.now - self.last_server_rx
            if silent_for < self.dpd_timeout or self._handshake is not None:
                continue
            self.reconnects += 1
            self._handshake = self._dpd
            try:
                yield from self._rehandshake(self.reconnects)
            except Interrupt:
                continue  # a retarget took over with a handshake of its own

    def _rehandshake(self, attempt: int):
        """Process generator: re-handshake number ``attempt`` with the
        current server, run by the process in ``_handshake``."""
        try:
            settings = yield from self._do_key_exchange(b"reconnect-%d" % attempt)
        except VpnError as exc:
            self.on_reconnect_failed(exc)
            return  # the DPD loop retries at a later tick
        finally:
            if attempt == self.reconnects:  # not superseded by a retarget
                self._handshake = None
        new_ip = IPv4Address(settings["tunnel_ip"])
        if new_ip != self.tunnel_ip and self.tun is not None:
            # same peer endpoint normally keeps its address; if the
            # server handed out a new one, re-home the TUN device
            self.tunnel_ip = new_ip
            self.tun.address = new_ip
            self.host.stack.set_preferred_source(new_ip)
        self.last_server_rx = self.sim.now
        self.on_reconnected(settings)

    def on_reconnected(self, settings: dict) -> None:
        """Hook: called after a successful re-handshake."""

    def on_reconnect_failed(self, exc: VpnError) -> None:
        """Hook: a re-handshake attempt failed (DPD retries later).

        EndBox uses this to recover from post-grace lockout: a rejected
        client fetches the latest configuration out-of-band and retries
        with a current version number.
        """

    def on_connected(self, settings: dict) -> None:
        """Hook: subclasses install extra routes / state."""

    # ------------------------------------------------------------------
    # fault injection: crash / restart of the client process
    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """Crash the client process: stop reading sockets, TUN and DPD.

        Used by repro.faults ClientCrash.  The VPN socket is closed —
        a dead process releases its port, so the server's keepalives to
        the old session fall on the floor instead of counting as
        liveness after restart.  Already-queued work items drain (they
        model packets in kernel buffers); no new I/O is accepted until
        :meth:`resume`.
        """
        if self.suspended:
            return
        self.suspended = True
        self.crashes += 1
        if self.sock is not None:
            self.sock.close()

    def resume(self) -> None:
        """Restart after :meth:`suspend`.

        The restarted process binds a fresh socket (new source port, as
        a real restart would) and the last-activity clock is rewound so
        dead-peer detection re-handshakes at its next tick — a restarted
        OpenVPN process always renegotiates.
        """
        if not self.suspended:
            return
        self.suspended = False
        # bind explicitly to the address facing the server: the stack's
        # preferred source is still the tunnel address at this point, and
        # a VPN socket bound there would have its handshake replies
        # routed into the (dead) tunnel by the server
        self.sock = self.host.stack.udp_socket(
            address=self.host.stack.source_address_for(self.server_addr)
        )
        self.sock.on_receive(self._on_datagram)
        self.last_server_rx = self.sim.now - 2.0 * self.dpd_timeout

    def retarget(self, server_addr) -> None:
        """Point the client at a different gateway (fleet migration) and
        re-handshake with it at once.

        Pins a host route for the new gateway over the physical uplink
        (the installed tunnel routes would otherwise swallow the outer
        datagrams).  A re-handshake still in flight is interrupted, as
        its reply would come from a gateway the client no longer hears.
        Before the first connection, or while crashed, no handshake
        starts here: the initial one, or the restart's, reaches the new
        gateway.
        """
        self.server_addr = IPv4Address(server_addr)
        if self._physical_route is not None:
            self.host.stack.add_route(f"{self.server_addr}/32", self._physical_route)
        if self._handshake is not None:
            self._handshake.interrupt("retarget")
            self._handshake = None
        if self._dpd is None or self.suspended:
            return
        self.reconnects += 1
        self._handshake = self.sim.process(
            self._rehandshake(self.reconnects), name=f"{self.host.name}.vpn-retarget"
        )

    # ------------------------------------------------------------------
    # pipeline hooks (EndBox overrides these)
    # ------------------------------------------------------------------
    def process_egress(self, packet: IPv4Packet) -> Tuple[bool, IPv4Packet, float]:
        """Per-packet egress hook; returns (accept, packet, cpu_seconds)."""
        return True, packet, client_egress_cost(self.model, len(packet), self.mode)

    def process_ingress(self, packet: IPv4Packet) -> Tuple[bool, IPv4Packet, float]:
        """Completion work for one reassembled inner packet.

        Per-datagram costs (recv, copy, crypto) were already charged as
        the fragments arrived; this adds the packet-level remainder.
        """
        return True, packet, client_ingress_completion_cost(self.model, len(packet))

    def fragment_crypto_mode(self):
        """Protection mode charged per received datagram.

        The vanilla client decrypts each datagram as it arrives;
        EndBox returns None here because decryption happens inside the
        enclave within the single per-packet ecall.
        """
        return self.mode

    # ------------------------------------------------------------------
    # data paths (single worker = single-threaded OpenVPN)
    # ------------------------------------------------------------------
    def _on_tun_packet(self, inner: IPv4Packet) -> None:
        """The TUN device's read handler."""
        if self.suspended:
            return
        self._work_inbox.put(("tx", inner, self.channel_epoch))

    def _worker(self):
        # after waking for one work item, take the contiguous run of
        # same-kind items already queued, up to ``burst_limit``: egress
        # packets, or DATA datagrams of the current key generation.
        # Peeking keeps arrival order, so a ping never jumps ahead of the
        # run before it, and a run never waits for more traffic.
        inbox = self._work_inbox
        while True:
            kind, item, epoch = yield inbox.get()
            if kind == "tx":
                # egress packets are not bound to a key generation: they
                # are protected with whatever tunnel is current
                run = [item]
                while len(run) < self.burst_limit:
                    pending = inbox.peek()
                    if pending is None or pending[0] != "tx":
                        break
                    run.append(inbox.try_get()[1])
                yield from self._handle_egress_run(run)
                continue
            if epoch != self.channel_epoch:
                # queued under superseded keys: dropping deliberately
                # keeps the old high packet ids out of the new replay
                # window (which they would otherwise wedge)
                self.packets_dropped_stale += 1
                continue
            if item.opcode != OP_DATA:
                self._handle_ping(item)
                continue
            run = [item]
            while len(run) < self.burst_limit:
                pending = inbox.peek()
                if (
                    pending is None
                    or pending[0] == "tx"
                    or pending[2] != self.channel_epoch
                    or pending[1].opcode != OP_DATA
                ):
                    break
                run.append(inbox.try_get()[1])
            yield from self._handle_data_run(run)

    def _handle_egress_run(self, inners):
        """A run of egress packets; the vanilla client takes them singly."""
        for inner in inners:
            yield from self._handle_egress(inner)

    def _handle_data_run(self, packets):
        """A run of DATA datagrams; the vanilla client takes them singly."""
        for packet in packets:
            yield from self._handle_data(packet)

    def _handle_egress(self, inner: IPv4Packet):
        accepted, inner, cost = self.process_egress(inner)
        yield from self._charge(cost)
        if accepted:
            self._send_inner(inner)

    def _send_inner(self, inner: IPv4Packet) -> None:
        inner_bytes = inner.serialize()
        self.inner_bytes_sent += len(inner_bytes)
        for wire in self.tunnel.seal(inner_bytes):
            self._send(wire)

    def _send(self, wire: bytes) -> None:
        """Send one datagram to the server.  A client that crashed while
        its worker was mid-charge sends nothing: its socket is closed, so
        the datagram is dropped and counted."""
        if self.suspended:
            self.packets_dropped_suspended += 1
            return
        self.sock.sendto(wire, self.server_addr, self.server_port)

    def _handle_data(self, packet: VpnPacket):
        plaintext = self.tunnel.open(packet)
        if plaintext is None:
            self.packets_rejected += 1
            return
        yield from self._charge(
            ingress_fragment_cost(self.model, len(plaintext), self.fragment_crypto_mode())
        )
        try:
            inner = self.tunnel.reassemble(packet, plaintext)
        except ValueError:
            self.packets_rejected += 1
            return
        if inner is None:
            return
        size = len(inner)
        accepted, inner, cost = self.process_ingress(inner)
        yield from self._charge(cost)
        if not accepted:
            return
        self.inner_bytes_received += size
        self.tun.write(inner)

    def _handle_ping(self, packet: VpnPacket) -> None:
        try:
            ping = PingMessage.parse(packet.body, self.secrets.server_hmac)
        except PingError:
            self.packets_rejected += 1
            return
        self.pings_received += 1
        if self.on_server_announcement is not None:
            self.on_server_announcement(ping)

    def _send_ping(self) -> None:
        ping = PingMessage(
            config_version=self.config_version,
            grace_period_s=0.0,
            timestamp_ns=int(self.sim.now * 1e9),
        )
        wire = VpnPacket(
            OP_PING, self.session_id, 0, ping.serialize(self.secrets.client_hmac)
        ).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self._send(wire)

    def _ping_loop(self):
        while True:
            yield self.sim.timeout(self.ping_interval)
            if self.suspended:
                continue
            self._send_ping()

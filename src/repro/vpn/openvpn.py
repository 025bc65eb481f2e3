"""OpenVPN-like client and server daemons over the simulated network.

The client owns a TUN device: packets the host routes into the tunnel
are read, protected on the data channel, fragmented to the MTU and sent
as UDP datagrams; inbound datagrams take the reverse path.  The server
terminates many sessions, enforces certificate-based admission, replay
windows and (for EndBox) configuration-version policy, and routes inner
packets via its host stack — including hairpin client-to-client
forwarding.

Threading model: OpenVPN is single-threaded, and the paper runs *one
server process per client*.  Each client has one worker doing all
per-packet work, and the server has one worker per session.  A worker
is a queue, a busy flag and a chain of heap callbacks: it handles one
work item at a time, charging calibrated CPU costs
(``repro.vpn.costing``) against its host's core pool with
:meth:`~repro.sim.resources.CpuCores.run` and going on in the charge's
end callback.  That is how throughput saturation, CPU-usage curves and
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
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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
        # the per-session "OpenVPN process": its queued ("rx"|"tx", item)
        # work, whether it is handling an item (or not yet started), its
        # CPU job in flight, and whether it was closed
        self.queue: Deque[Tuple[str, Any]] = deque()
        self.busy = True
        self.job = None
        self.closed = False
        # the first entry keeps a process kickoff's place in the heap
        # order (DESIGN.md, "Per-packet engine path")
        server.sim.schedule(0.0, server._session_ready, self)


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
            self._close_session(session)
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

        Each session's worker is closed and both lookup tables drop
        the session, so the gateway refuses the peer's traffic until it
        handshakes again.
        """
        for peer, session in list(self.sessions_by_peer.items()):
            if peer[0] == outer_addr:
                self._drop_session(peer, session)

    def _drop_session(self, peer: Tuple[IPv4Address, int], session: VpnSession) -> None:
        self._close_session(session)
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
        self._session_put(session, ("rx", packet))

    def _on_tun_packet(self, inner: IPv4Packet) -> None:
        """The TUN device's read handler."""
        if self.down:
            self.packets_dropped_down += 1
            return
        session = self.sessions_by_tunnel_ip.get(inner.dst)
        if session is None or not session.established:
            return
        self._session_put(session, ("tx", inner))

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
                    self._drop_session(peer, session)
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
            self._close_session(existing)
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
    # A worker is a chain of heap callbacks that keeps a generator
    # process's heap order (DESIGN.md, "Per-packet engine path"): a put
    # to an idle worker runs it inline, a worker that finishes with items
    # queued schedules the next at now, every charge goes on in its
    # job's end callback, and a close is one entry at now.
    def _session_put(self, session: VpnSession, item: Tuple[str, Any]) -> None:
        """Queue a work item; an idle worker handles it at once."""
        if session.closed:
            return
        session.queue.append(item)
        if not session.busy:
            session.busy = True
            self._session_next(session)

    def _session_next(self, session: VpnSession) -> None:
        """Handle the next queued work item."""
        if session.closed:
            return
        kind, item = session.queue.popleft()
        if kind == "rx":
            self._session_rx(session, item)
        else:
            self._session_tx(session, item)

    def _session_ready(self, session: VpnSession) -> None:
        """The worker has finished an item (or, as its first entry, is
        starting): schedule the next queued item, or go idle."""
        if session.closed:
            return
        if session.queue:
            self.sim.schedule(0.0, self._session_next, session)
        else:
            session.busy = False

    def _session_charge(
        self, session: VpnSession, seconds: float, callback: Callable[[Any], None], arg: Any
    ) -> None:
        """Charge ``seconds`` to the session's worker, then ``callback(arg)``:
        at the job's end, or at once when nothing is charged."""
        if self.charge_cpu and seconds > 0:
            session.job = self.host.cpu.run(seconds, callback, arg)
        else:
            callback(arg)

    def _close_session(self, session: VpnSession) -> None:
        """Stop the session's worker with one entry at now."""
        if not session.closed:
            self.sim.schedule(0.0, self._session_closed, session)

    def _session_closed(self, session: VpnSession) -> None:
        """Close the worker: give back its core or its place in the CPU
        queue; later items and callbacks of the worker do nothing."""
        if session.closed:
            return
        session.closed = True
        session.queue.clear()
        if session.job is not None:
            self.host.cpu.cancel(session.job)

    def _session_rx(self, session: VpnSession, packet: VpnPacket) -> None:
        if packet.opcode == OP_PING:
            self._session_ping(session, packet)
            return
        if packet.opcode != OP_DATA:
            self._session_ready(session)
            return
        if not session.established:
            self.packets_rejected += 1
            self._session_ready(session)
            return
        plaintext = session.tunnel.open(packet)
        if plaintext is None:
            self.packets_rejected += 1
            self._session_ready(session)
            return
        # per-datagram work: socket recv, copy, verify+decrypt
        self._session_charge(
            session,
            ingress_fragment_cost(self.model, len(plaintext), self.mode),
            self._session_rx_opened,
            (session, packet, plaintext),
        )

    def _session_rx_opened(self, step: Tuple[VpnSession, VpnPacket, bytes]) -> None:
        """Reassemble an opened fragment, judge the completed inner
        packet and charge its completion."""
        session, packet, plaintext = step
        try:
            inner = session.tunnel.reassemble(packet, plaintext)
        except ValueError:
            self.packets_rejected += 1
            self._session_ready(session)
            return
        if inner is None:
            self._session_ready(session)
            return
        size = len(inner)
        if not self.data_policy(session):
            session.packets_dropped_policy += 1
            self.packets_rejected += 1
            self._tm_stale_rejected.inc()
            self._session_charge(session, self.model.vpn_server_fixed, self._session_ready, session)
            return
        deadline = self.grace_deadline_for(session.client_version)
        if deadline is not None and self.sim.now >= deadline:
            # tripwire: a (possibly overridden) data_policy admitted a
            # stale client past its grace deadline — chaos experiments
            # assert this stays zero
            self.stale_admitted_after_grace += 1
        accepted, inner, middlebox_cost = self.session_packet_hook(session, inner, inbound=True)
        cost = server_completion_cost(self.model, size) + middlebox_cost
        if accepted:
            self._session_charge(session, cost, self._session_deliver, (session, inner, size))
        else:
            self._session_charge(session, cost, self._session_ready, session)

    def _session_deliver(self, step: Tuple[VpnSession, IPv4Packet, int]) -> None:
        session, inner, size = step
        session.inner_bytes_in += size
        self.deliver_inner(session, inner)
        self._session_ready(session)

    def deliver_inner(self, session: VpnSession, inner: IPv4Packet) -> None:
        """Route a decrypted inner packet into the managed network."""
        self.host.stack.inject(inner, self.tun)

    def _session_tx(self, session: VpnSession, inner: IPv4Packet) -> None:
        accepted, inner, middlebox_cost = self.session_packet_hook(session, inner, inbound=False)
        inner_bytes = inner.serialize()
        cost = server_egress_cost(self.model, len(inner_bytes), self.mode) + middlebox_cost
        if accepted:
            self._session_charge(session, cost, self._session_send, (session, inner_bytes))
        else:
            self._session_charge(session, cost, self._session_ready, session)

    def _session_send(self, step: Tuple[VpnSession, bytes]) -> None:
        session, inner_bytes = step
        session.inner_bytes_out += len(inner_bytes)
        for wire in session.tunnel.seal(inner_bytes):
            self.sock.sendto(wire, session.outer_addr, session.outer_port)
        self._session_ready(session)

    def _session_ping(self, session: VpnSession, packet: VpnPacket) -> None:
        try:
            ping = PingMessage.parse(packet.body, session.secrets.client_hmac)
        except PingError:
            self.packets_rejected += 1
            self._session_ready(session)
            return
        self._session_charge(
            session, self.model.vpn_server_fixed, self._session_pinged, (session, ping)
        )

    def _session_pinged(self, step: Tuple[VpnSession, PingMessage]) -> None:
        session, ping = step
        session.client_version = max(session.client_version, ping.config_version)
        session.last_ping_time = self.sim.now
        if not session.established:
            session.established = True
            self._send_session_config(session)
            self.on_session_established(session)
        self._send_ping(session)
        self._session_ready(session)

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
        # the client's "OpenVPN process": its queued ("rx"|"tx", item,
        # epoch) work, and whether it is handling an item (or not yet
        # started)
        self._work_inbox: Deque[Tuple[str, Any, int]] = deque()
        self._work_busy = True
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

    def _charge_then(self, seconds: float, callback: Callable[[Any], None], arg: Any) -> None:
        """Charge ``seconds`` to the worker, then ``callback(arg)``: at the
        job's end, or at once when nothing is charged."""
        if self.charge_cpu and seconds > 0:
            self.host.cpu.run(seconds, callback, arg)
        else:
            callback(arg)

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
            self._work_put(("rx", packet, self.channel_epoch))

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
        # the worker's first entry keeps a process kickoff's place in
        # the heap order
        self.sim.schedule(0.0, self._work_ready)
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
    # The worker keeps the heap order of the gateway's session workers
    # (see "per-session worker" above); it is never closed.  A run
    # handler gets the continuation ``done`` and calls ``done(None)``
    # once its last charge has ended.
    def _on_tun_packet(self, inner: IPv4Packet) -> None:
        """The TUN device's read handler."""
        if self.suspended:
            return
        self._work_put(("tx", inner, self.channel_epoch))

    def _work_put(self, item: Tuple[str, Any, int]) -> None:
        """Queue a work item; an idle worker handles it at once."""
        self._work_inbox.append(item)
        if not self._work_busy:
            self._work_busy = True
            self._worker()

    def _work_ready(self, _arg: Any = None) -> None:
        """The worker has finished an item (or, as its first entry, is
        starting): schedule the next queued item, or go idle."""
        if self._work_inbox:
            self.sim.schedule(0.0, self._worker)
        else:
            self._work_busy = False

    def _worker(self) -> None:
        """Handle the next work item and the contiguous run of same-kind
        items queued behind it, up to ``burst_limit``: egress packets, or
        DATA datagrams of the current key generation.  Taking only the
        queue's head keeps arrival order, so a ping never jumps ahead of
        the run before it, and a run never waits for more traffic."""
        inbox = self._work_inbox
        kind, item, epoch = inbox.popleft()
        if kind == "tx":
            # egress packets are not bound to a key generation: they
            # are protected with whatever tunnel is current
            run = [item]
            while len(run) < self.burst_limit and inbox and inbox[0][0] == "tx":
                run.append(inbox.popleft()[1])
            self._handle_egress_run(run, self._work_ready)
            return
        epoch_now = self.channel_epoch
        if epoch != epoch_now:
            # queued under superseded keys: dropping deliberately
            # keeps the old high packet ids out of the new replay
            # window (which they would otherwise wedge)
            self.packets_dropped_stale += 1
            self._work_ready()
            return
        if item.opcode != OP_DATA:
            self._handle_ping(item)
            self._work_ready()
            return
        run = [item]
        while len(run) < self.burst_limit and inbox:
            pending = inbox[0]
            if pending[0] == "tx" or pending[2] != epoch_now or pending[1].opcode != OP_DATA:
                break
            run.append(inbox.popleft()[1])
        self._handle_data_run(run, self._work_ready)

    def _handle_egress_run(self, inners: List[IPv4Packet], done: Callable[[Any], None]) -> None:
        """A run of egress packets: the vanilla client's runs hold one
        (``burst_limit`` is 1)."""
        (inner,) = inners
        self._handle_egress(inner, done)

    def _handle_data_run(self, packets: List[VpnPacket], done: Callable[[Any], None]) -> None:
        """A run of DATA datagrams: the vanilla client's runs hold one."""
        (packet,) = packets
        self._handle_data(packet, done)

    def _handle_egress(self, inner: IPv4Packet, done: Callable[[Any], None]) -> None:
        accepted, inner, cost = self.process_egress(inner)
        if accepted:
            self._charge_then(cost, self._send_then, (inner, done))
        else:
            self._charge_then(cost, done, None)

    def _send_then(self, step: Tuple[IPv4Packet, Callable[[Any], None]]) -> None:
        inner, done = step
        self._send_inner(inner)
        done(None)

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

    def _handle_data(self, packet: VpnPacket, done: Callable[[Any], None]) -> None:
        plaintext = self.tunnel.open(packet)
        if plaintext is None:
            self.packets_rejected += 1
            done(None)
            return
        self._charge_then(
            ingress_fragment_cost(self.model, len(plaintext), self.fragment_crypto_mode()),
            self._data_opened,
            (packet, plaintext, done),
        )

    def _data_opened(self, step: Tuple[VpnPacket, bytes, Callable[[Any], None]]) -> None:
        """Reassemble an opened fragment and complete the inner packet."""
        packet, plaintext, done = step
        try:
            inner = self.tunnel.reassemble(packet, plaintext)
        except ValueError:
            self.packets_rejected += 1
            done(None)
            return
        if inner is None:
            done(None)
            return
        size = len(inner)
        accepted, inner, cost = self.process_ingress(inner)
        if accepted:
            self._charge_then(cost, self._write_then, (inner, size, done))
        else:
            self._charge_then(cost, done, None)

    def _write_then(self, step: Tuple[IPv4Packet, int, Callable[[Any], None]]) -> None:
        inner, size, done = step
        self.inner_bytes_received += size
        self.tun.write(inner)
        done(None)

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

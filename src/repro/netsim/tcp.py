"""A compact but real TCP: handshake, cumulative ACKs, flow control,
out-of-order reassembly and timeout retransmission.

This is the transport under the HTTP/HTTPS experiments (Fig 6, Table I).
It is intentionally simpler than a production stack — fixed-size windows,
no SACK, no congestion control beyond a static cwnd — because the paper's
latency results are dominated by RTTs and per-hop processing, not by loss
recovery (the simulated links only drop on queue overflow).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.netsim.addresses import IPv4Address
from repro.netsim.packet import (
    PROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    IPv4Packet,
    TcpSegment,
    new_ipv4,
    new_tcp,
)
from repro.sim import FifoStore, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.stack import NetworkStack

ConnKey = Tuple[IPv4Address, int, IPv4Address, int]

DEFAULT_MSS = 8960  # MTU 9000 - 40 bytes of IP+TCP headers
DEFAULT_WINDOW = 262144
#: Fixed window-scale shift (real TCP negotiates this in SYN options; the
#: simulated stack always applies it so large windows fit the 16-bit field).
WINDOW_SHIFT = 6
INITIAL_RTO = 0.2
MAX_RETRIES = 8


class TcpError(RuntimeError):
    """Connection-level failure (reset, retries exhausted, misuse)."""


class TcpListener:
    """A passive socket; ``accept()`` yields established connections."""

    def __init__(self, engine: "TcpEngine", port: int) -> None:
        self.engine = engine
        self.port = port
        self._backlog = FifoStore(engine.stack.sim, name=f"tcp-listen:{port}")
        self.closed = False

    def accept(self):
        """Event yielding the next established :class:`TcpConnection`."""
        return self._backlog.get()

    def close(self) -> None:
        """Close and release the resource."""
        self.closed = True
        self.engine._listeners.pop(self.port, None)


class TcpConnection:
    """One end of an established (or establishing) TCP connection."""

    # states
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT = "FIN_WAIT"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSED = "CLOSED"

    def __init__(
        self,
        engine: "TcpEngine",
        local_addr: IPv4Address,
        local_port: int,
        remote_addr: IPv4Address,
        remote_port: int,
        initial_seq: int,
        mss: int = DEFAULT_MSS,
    ) -> None:
        self.engine = engine
        self.sim: Simulator = engine.stack.sim
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.mss = mss
        self.state = self.CLOSED

        # send side
        self.snd_una = initial_seq  # oldest unacknowledged
        self.snd_nxt = initial_seq  # next seq to send
        self.snd_wnd = DEFAULT_WINDOW
        self._send_buffer = b""  # bytes not yet segmented
        self._inflight: List[Tuple[int, bytes]] = []  # (seq, payload)
        self._send_waiters: List = []
        self._retx_timer_token = 0
        self._rto = INITIAL_RTO
        self._retries = 0

        # receive side
        self.rcv_nxt = 0
        self._ooo: Dict[int, bytes] = {}
        self._rx_chunks = FifoStore(self.sim, name="tcp.rx")
        self._rx_leftover = b""
        self.peer_closed = False

        self._established_event = self.sim.event("tcp.established")
        self._closed_event = self.sim.event("tcp.closed")
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def key(self) -> ConnKey:
        return (self.local_addr, self.local_port, self.remote_addr, self.remote_port)

    def send(self, data: bytes) -> None:
        """Queue application data for transmission."""
        if self.state not in (self.ESTABLISHED, self.CLOSE_WAIT):
            raise TcpError(f"send() in state {self.state}")
        self._send_buffer += data
        self._pump()

    def recv(self):
        """Event yielding the next chunk of in-order data (or b'' on FIN)."""
        return self._rx_chunks.get()

    def read_exactly(self, count: int):
        """Process generator: read exactly ``count`` bytes."""
        buffer = self._rx_leftover
        self._rx_leftover = b""
        while len(buffer) < count:
            chunk = yield self.recv()
            if chunk == b"":
                raise TcpError("connection closed mid-read")
            buffer += chunk
        self._rx_leftover = buffer[count:]
        return buffer[:count]

    def read_until(self, delimiter: bytes, max_bytes: int = 1 << 20):
        """Process generator: read through ``delimiter`` (inclusive)."""
        buffer = self._rx_leftover
        self._rx_leftover = b""
        while delimiter not in buffer:
            if len(buffer) > max_bytes:
                raise TcpError("delimiter not found within limit")
            chunk = yield self.recv()
            if chunk == b"":
                raise TcpError("connection closed before delimiter")
            buffer += chunk
        index = buffer.index(delimiter) + len(delimiter)
        self._rx_leftover = buffer[index:]
        return buffer[:index]

    def drain(self):
        """Process generator: wait until all queued data is ACKed."""
        while self._send_buffer or self._inflight:
            waiter = self.sim.event("tcp.drain")
            self._send_waiters.append(waiter)
            yield waiter

    def close(self) -> None:
        """Send FIN after queued data; local side stops sending."""
        if self.state in (self.CLOSED,):
            return
        if self.state == self.ESTABLISHED:
            self.state = self.FIN_WAIT
        elif self.state == self.CLOSE_WAIT:
            self.state = self.CLOSED
        self._send_segment(TCP_FIN | TCP_ACK, b"")
        self.snd_nxt += 1
        if self.state == self.CLOSED:
            self._teardown()

    def wait_established(self):
        """Event that fires when the connection is ESTABLISHED."""
        return self._established_event

    # ------------------------------------------------------------------
    # sending machinery
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        inflight_bytes = sum(len(p) for _s, p in self._inflight)
        window = min(self.snd_wnd, DEFAULT_WINDOW)
        while self._send_buffer and inflight_bytes < window:
            chunk = self._send_buffer[: self.mss]
            self._send_buffer = self._send_buffer[len(chunk) :]
            self._inflight.append((self.snd_nxt, chunk))
            self._send_segment(TCP_ACK, chunk, seq=self.snd_nxt)
            self.snd_nxt += len(chunk)
            inflight_bytes += len(chunk)
        if self._inflight:
            self._arm_retx()

    def _send_segment(self, flags: int, payload: bytes, seq: Optional[int] = None) -> None:
        segment = new_tcp(
            self.local_port,
            self.remote_port,
            self.snd_nxt if seq is None else seq,
            self.rcv_nxt,
            flags,
            DEFAULT_WINDOW >> WINDOW_SHIFT,
            payload,
        )
        packet = new_ipv4(self.local_addr, self.remote_addr, segment, protocol=PROTO_TCP)
        self.bytes_sent += len(payload)
        self.engine.stack.send_packet(packet)

    def _arm_retx(self) -> None:
        self._retx_timer_token += 1
        token = self._retx_timer_token
        self.sim.schedule(self._rto, lambda: self._on_retx_timer(token))

    def _on_retx_timer(self, token: int) -> None:
        if token != self._retx_timer_token or not self._inflight:
            return
        self._retries += 1
        if self._retries > MAX_RETRIES:
            self._teardown(error=TcpError("retransmission limit reached"))
            return
        self._rto = min(self._rto * 2, 5.0)
        seq, payload = self._inflight[0]
        self._send_segment(TCP_ACK, payload, seq=seq)
        self._arm_retx()

    # ------------------------------------------------------------------
    # segment arrival
    # ------------------------------------------------------------------
    def handle(self, segment: TcpSegment) -> None:
        """Process one incoming segment for this connection."""
        if segment.rst:
            self._teardown(error=TcpError("connection reset by peer"))
            return
        if self.state == self.SYN_SENT:
            if segment.syn and segment.has_ack and segment.ack == self.snd_nxt:
                self.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
                self.snd_una = segment.ack
                self.snd_wnd = segment.window << WINDOW_SHIFT
                self.state = self.ESTABLISHED
                self._send_segment(TCP_ACK, b"")
                self._established_event.succeed(self)
            return
        if self.state == self.SYN_RCVD:
            if segment.has_ack and segment.ack == self.snd_nxt:
                self.state = self.ESTABLISHED
                self.snd_una = segment.ack
                self.snd_wnd = segment.window << WINDOW_SHIFT
                self._established_event.succeed(self)
                self.engine._announce_accept(self)
            # fall through: the ACK may carry data

        if segment.has_ack:
            self._process_ack(segment.ack, segment.window << WINDOW_SHIFT)
        if segment.payload:
            self._process_data(segment.seq, segment.payload)
        if segment.fin:
            self._process_fin(segment.seq + len(segment.payload))

    def _process_ack(self, ack: int, window: int) -> None:
        self.snd_wnd = window
        if ack <= self.snd_una:
            return
        self.snd_una = ack
        self._retries = 0
        self._rto = INITIAL_RTO
        # cumulative ACK covers an in-order prefix of the inflight list,
        # so drop that prefix in place (no rebuilt list per ACK)
        inflight = self._inflight
        while inflight and inflight[0][0] + len(inflight[0][1]) <= ack:
            inflight.pop(0)
        if self._inflight:
            self._arm_retx()
        else:
            self._retx_timer_token += 1  # cancel timer
        self._pump()
        if not self._send_buffer and not self._inflight:
            waiters, self._send_waiters = self._send_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed(None)

    def _process_data(self, seq: int, payload: bytes) -> None:
        if seq > self.rcv_nxt:
            self._ooo[seq] = payload
        elif seq + len(payload) > self.rcv_nxt:
            # trim any already-received prefix, deliver the rest; the
            # in-order case (offset 0) forwards the buffer as-is, and a
            # real trim materialises through a view (one copy, no
            # intermediate slice)
            offset = self.rcv_nxt - seq
            data = bytes(memoryview(payload)[offset:]) if offset else payload
            self.rcv_nxt += len(data)
            self.bytes_received += len(data)
            self._rx_chunks.put(data)
            # drain contiguous out-of-order segments
            while self.rcv_nxt in self._ooo:
                chunk = self._ooo.pop(self.rcv_nxt)
                self.rcv_nxt += len(chunk)
                self.bytes_received += len(chunk)
                self._rx_chunks.put(chunk)
        # duplicate or old data falls through to the ACK below
        self._send_segment(TCP_ACK, b"")

    def _process_fin(self, fin_seq: int) -> None:
        if fin_seq != self.rcv_nxt:
            return  # FIN out of order; wait for the data first
        self.rcv_nxt += 1
        self.peer_closed = True
        self._rx_chunks.put(b"")  # EOF marker to readers
        self._send_segment(TCP_ACK, b"")
        if self.state == self.ESTABLISHED:
            self.state = self.CLOSE_WAIT
        elif self.state == self.FIN_WAIT:
            self._teardown()

    def _teardown(self, error: Optional[BaseException] = None) -> None:
        if self.state == self.CLOSED and self._closed_event.triggered:
            return
        self.state = self.CLOSED
        self._retx_timer_token += 1
        self.engine._forget(self)
        if not self._closed_event.triggered:
            self._closed_event.succeed(None)
        if error is not None and not self.peer_closed:
            self._rx_chunks.put(b"")  # EOF wakes any blocked reader


class TcpEngine:
    """Per-stack TCP demux and connection factory."""

    def __init__(self, stack: "NetworkStack") -> None:
        self.stack = stack
        self._connections: Dict[ConnKey, TcpConnection] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._isn = 1000  # deterministic initial sequence numbers

    # ------------------------------------------------------------------
    def listen(self, port: int) -> TcpListener:
        """Open a passive socket on the port."""
        if port in self._listeners:
            raise TcpError(f"port {port} already listening")
        listener = TcpListener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, remote_addr: IPv4Address, remote_port: int, timeout: float = 5.0):
        """Process generator: active open; returns an ESTABLISHED connection."""
        local_addr = self.stack.source_address_for(remote_addr)
        local_port = self.stack._next_ephemeral()
        self._isn += 64000
        conn = TcpConnection(
            self, local_addr, local_port, IPv4Address(remote_addr), remote_port, self._isn
        )
        conn.state = TcpConnection.SYN_SENT
        self._connections[conn.key] = conn
        conn._send_segment(TCP_SYN, b"")
        conn.snd_nxt += 1
        sim = self.stack.sim
        timer = sim.timeout(timeout)
        event, _value = yield sim.any_of([conn.wait_established(), timer])
        if event is timer:
            conn._teardown()
            raise TcpError(f"connect to {remote_addr}:{remote_port} timed out")
        return conn

    # ------------------------------------------------------------------
    def handle_segment(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        """Demux one TCP segment to its connection or listener."""
        key = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle(segment)
            return
        if segment.syn and not segment.has_ack:
            listener = self._listeners.get(segment.dst_port)
            if listener is not None and not listener.closed:
                self._passive_open(packet, segment)
                return
        if not segment.rst:
            # No one home: emit RST so active opens fail fast.
            rst = new_tcp(
                segment.dst_port,
                segment.src_port,
                segment.ack,
                segment.seq + 1,
                TCP_RST | TCP_ACK,
                65535,
                b"",
            )
            self.stack.send_packet(new_ipv4(packet.dst, packet.src, rst, protocol=PROTO_TCP))

    def _passive_open(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        self._isn += 64000
        conn = TcpConnection(
            self, packet.dst, segment.dst_port, packet.src, segment.src_port, self._isn
        )
        conn.state = TcpConnection.SYN_RCVD
        conn.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
        conn.snd_wnd = segment.window << WINDOW_SHIFT
        self._connections[conn.key] = conn
        conn._send_segment(TCP_SYN | TCP_ACK, b"")
        conn.snd_nxt += 1

    def _announce_accept(self, conn: TcpConnection) -> None:
        listener = self._listeners.get(conn.local_port)
        if listener is not None and not listener.closed:
            listener._backlog.put(conn)

    def _forget(self, conn: TcpConnection) -> None:
        self._connections.pop(conn.key, None)

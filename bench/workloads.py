"""The traffic workloads and the measured run of one world.

Everything here runs inside a child interpreter (:mod:`bench.child`):
one world per process, so set-up is cold and no cache survives from
one workload into the next.

Traffic is open loop from the benchmark's own simulation processes:
each source sends on a fixed schedule through
``host.stack.udp_socket().sendto`` whatever the pipeline does, and the
benchmark's sink checks every datagram it gets.  A payload is an 8-byte
sequence number, the send time on the sim clock (8-byte float), and
filler cut from a pool of hex digits drawn from the seed.  Hex digits
keep every byte printable and out of the IDS rules' content strings,
so no workload trips the middlebox by accident.
"""

from __future__ import annotations

import hashlib
import random
import resource
import struct
import time
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from bench.spans import SpanRecorder, install
from bench.speed import time_reference

#: seq (signed 64-bit) + send time on the sim clock (float64)
HEADER = struct.Struct(">qd")
#: IP (20) + UDP (8): workload sizes count the whole inner IP packet
IP_UDP_BYTES = 28
DATA_PORT = 5201
#: FW denies ``dst port 445`` (repro.click.configs.firewall_rules)
DENY_PORT = 445
#: sim seconds the pipeline gets to empty after the sources stop
DRAIN_S = 0.05
FILLER_POOL_BYTES = 1 << 16
#: untimed kernel runs first, so the interpreter has specialised its code
REFERENCE_WARMUPS = 3
#: kernel timings on each side of a set-up
SETUP_REFERENCES = 10


@dataclass(frozen=True)
class Workload:
    """One traffic mix through one kind of world."""

    name: str
    #: DeploymentSpec fields on top of :data:`COMMON_SPEC`
    spec: Dict[str, Any]
    #: "uplink" (every client -> internal host) or "downlink"
    direction: str
    #: inner IP packet size in bytes
    packet_bytes: int
    #: mean datagrams per second offered by each source
    rate_pps: float
    #: sim seconds one wall second covers, untraced, on the reference
    #: machine; sizes the window so a run measures about --seconds
    pace: float
    #: datagrams sent back to back at each send time
    burst: int = 1
    #: every Nth datagram goes to the firewall-denied port (0: none)
    deny_every: int = 0

    @property
    def period_s(self) -> float:
        """Sim seconds between two send times of one source."""
        return self.burst / self.rate_pps


COMMON_SPEC = dict(with_config_server=False, ping_interval=5.0)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="small_uplink",
            spec=dict(setup="endbox_sgx", use_case="NOP"),
            direction="uplink",
            packet_bytes=64,
            rate_pps=30_000,
            pace=0.21,
        ),
        Workload(
            name="bulk_idps_downlink",
            spec=dict(setup="endbox_sgx", use_case="IDPS"),
            direction="downlink",
            packet_bytes=1500,
            rate_pps=15_000,
            pace=0.22,
        ),
        Workload(
            name="burst_fw",
            spec=dict(setup="endbox_sgx", use_case="FW", ecall_batching=True),
            direction="uplink",
            packet_bytes=64,
            rate_pps=48_000,
            burst=32,
            deny_every=8,
            pace=0.155,
        ),
        Workload(
            name="fleet_16x2",
            spec=dict(setup="endbox_sgx", use_case="NOP", clients=16, gateways=2),
            direction="uplink",
            packet_bytes=1500,
            rate_pps=3_200,
            pace=0.10,
        ),
    )
}


def filler_pool(seed: str) -> bytes:
    """Hex-digit filler drawn from the seed (same seed, same bytes)."""
    return random.Random(f"bench-filler:{seed}").randbytes(FILLER_POOL_BYTES // 2).hex().encode()


def timed_setup(workload: Workload, seed: str):
    """Build and connect a world; returns (world, build_s, connect_s)."""
    from repro.fleet import DeploymentSpec

    spec = DeploymentSpec(seed=seed, **COMMON_SPEC, **workload.spec)
    start = time.perf_counter()
    world = spec.build()
    built = time.perf_counter()
    world.connect_all()
    connected = time.perf_counter()
    return world, built - start, connected - built


def run_setup(workload: Workload, seed: str) -> Dict[str, Any]:
    """Time one cold set-up, with reference-kernel timings around it."""
    for _ in range(REFERENCE_WARMUPS):
        time_reference()
    references = [time_reference() for _ in range(SETUP_REFERENCES)]
    _world, build_s, connect_s = timed_setup(workload, seed)
    references += [time_reference() for _ in range(SETUP_REFERENCES)]
    return {"setup_s": build_s + connect_s, "reference_s": references}


class Traffic:
    """The benchmark's sources and sink inside one world.

    Sources start at ``start`` and send for ``window_s`` sim seconds.
    """

    def __init__(self, world, workload: Workload, seed: str, start: float, window_s: float) -> None:
        self.world = world
        self.workload = workload
        self.start = start
        if workload.direction == "uplink":
            sink_host = world.internal
            sources = [(host, sink_host.address) for host in world.client_hosts]
        else:
            sink_host = world.client_hosts[0]
            sources = [(world.internal, world.clients[0].tunnel_ip)]
        self.pool = filler_pool(seed)
        self.filler_len = workload.packet_bytes - IP_UDP_BYTES - HEADER.size
        self.filler_span = len(self.pool) - self.filler_len
        periods = round(window_s / workload.period_s)
        self.planned = periods * workload.burst * len(sources)
        #: deliveries per sequence number (saturating at 255)
        self.seen = bytearray(self.planned)
        self.next_seq = 0
        self.delivered = 0
        self.denied_delivered = 0
        self.corrupt = 0
        self.seqs = array("q")
        self.arrivals = array("d")
        self.latencies = array("d")
        sim = world.sim
        sim.process(self._sink(sink_host.stack.udp_socket(DATA_PORT)), name="bench.sink")
        if workload.deny_every:
            deny_sock = sink_host.stack.udp_socket(DENY_PORT)
            sim.process(self._deny_sink(deny_sock), name="bench.deny-sink")
        for index, (host, dst) in enumerate(sources):
            # sources are spread evenly over one period
            phase = index * workload.period_s / len(sources)
            sock = host.stack.udp_socket()
            sim.process(self._source(sock, dst, phase, periods), name=f"bench.source-{index}")

    def filler(self, seq: int) -> bytes:
        """The filler datagram ``seq`` carries."""
        offset = (seq * 61) % self.filler_span
        return self.pool[offset : offset + self.filler_len]

    def is_denied(self, seq: int) -> bool:
        """True for datagrams addressed to the denied port."""
        every = self.workload.deny_every
        return bool(every) and seq % every == every - 1

    def _source(self, sock, dst, phase: float, periods: int):
        sim = self.world.sim
        burst = self.workload.burst
        period = self.workload.period_s
        pack = HEADER.pack
        for index in range(periods):
            delay = self.start + phase + index * period - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            for _ in range(burst):
                seq = self.next_seq
                self.next_seq = seq + 1
                port = DENY_PORT if self.is_denied(seq) else DATA_PORT
                sock.sendto(pack(seq, sim.now) + self.filler(seq), dst, port)

    def _sink(self, sock):
        sim = self.world.sim
        unpack = HEADER.unpack_from
        expected_len = HEADER.size + self.filler_len
        seen = self.seen
        while True:
            payload, _src, _port, _packet = yield sock.recv()
            self.delivered += 1
            if len(payload) != expected_len:
                self.corrupt += 1
                continue
            seq, sent = unpack(payload)
            if (
                not 0 <= seq < len(seen)
                or self.is_denied(seq)
                or payload[HEADER.size :] != self.filler(seq)
            ):
                self.corrupt += 1
                continue
            if seen[seq] < 255:
                seen[seq] += 1
            self.seqs.append(seq)
            self.arrivals.append(sim.now)
            self.latencies.append(sim.now - sent)

    def _deny_sink(self, sock):
        while True:
            yield sock.recv()
            self.denied_delivered += 1

    def outcome(self) -> Dict[str, Any]:
        """Delivery facts for the checks, after the drain."""
        denied = once = duplicates = 0
        for seq in range(self.next_seq):
            if self.is_denied(seq):
                denied += 1
            elif self.seen[seq] == 1:
                once += 1
            elif self.seen[seq] > 1:
                duplicates += 1
        latencies = sorted(self.latencies)
        digest = hashlib.sha256(self.seqs.tobytes() + self.arrivals.tobytes()).hexdigest()
        return {
            "offered": self.next_seq,
            "planned": self.planned,
            "denied": denied,
            "expected": self.next_seq - denied,
            "delivered_once": once,
            "duplicates": duplicates,
            "corrupt": self.corrupt,
            "denied_delivered": self.denied_delivered,
            "latency_p50_s": _percentile(latencies, 0.50),
            "latency_p99_s": _percentile(latencies, 0.99),
            "digest": digest,
        }


def _percentile(ordered: List[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def counters(world) -> Dict[str, float]:
    """Public counters and telemetry totals the per-layer metrics use."""
    telemetry = world.sim.telemetry
    hosts = world.client_hosts + world.gateway_hosts + world.internal_hosts
    stack_drops = sum(host.stack.packets_dropped for host in hosts)
    tun_drops = sum(client.tun.packets_dropped for client in world.clients if client.tun)
    tun_drops += sum(gateway.tun.packets_dropped for gateway in world.gateways)
    switch = world.topo.switch
    return {
        "events": world.sim.events_executed,
        "frames": telemetry.value("netsim.link.frames_sent"),
        "frames_dropped": telemetry.value("netsim.link.frames_dropped")
        + telemetry.value("netsim.link.frames_lost")
        + switch.packets_dropped
        + switch.packets_denied
        + stack_drops
        + tun_drops,
        "click_drops": sum(client.packets_dropped_by_click for client in world.clients),
        "vpn_rejects": sum(client.packets_rejected for client in world.clients)
        + sum(gateway.packets_rejected for gateway in world.gateways),
        "router_packets": telemetry.value("click.router.packets"),
        "keystream_hits": telemetry.value("crypto.stream.cache_hits"),
        "keystream_misses": telemetry.value("crypto.stream.cache_misses"),
        "client_cpu_s": sum(host.cpu.busy_time for host in world.client_hosts),
        "gateway_cpu_s": sum(host.cpu.busy_time for host in world.gateway_hosts),
        "enclave_s": sum(enclave.gateway.ledger.total for enclave in world.enclaves),
    }


def run_world(
    workload: Workload,
    seed: str,
    slices: int,
    slice_s: float,
    traced: bool = False,
    warm: bool = False,
) -> Dict[str, Any]:
    """Build, connect and drive one world; returns the raw measurements.

    The window is ``slices`` equal sim-time slices of ``slice_s``; the
    wall time of each is taken around its ``Simulator.run`` call, and the
    reference kernel is timed just before it.  With
    ``traced``, span wrappers are installed before the build and removed
    before returning.  With ``warm``, a second world is built and
    connected in this process after the window (what process-wide caches
    save).
    """
    recorder = SpanRecorder() if traced else None
    patches = install(recorder) if traced else None
    try:
        world, build_s, connect_s = timed_setup(workload, seed)
        sim = world.sim
        window_s = slices * slice_s
        traffic = Traffic(world, workload, seed, start=sim.now, window_s=window_s)
        before = counters(world)
        for _ in range(REFERENCE_WARMUPS):
            time_reference()
        if recorder is not None:
            recorder.reset()
        timings = []
        for index in range(slices):
            reference_s = time_reference()
            delivered = traffic.delivered
            wall_start = time.perf_counter()
            sim.run(until=traffic.start + (index + 1) * slice_s)
            wall_s = time.perf_counter() - wall_start
            timings.append((traffic.delivered - delivered, wall_s, reference_s))
        after = counters(world)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spans = None
        if recorder is not None:
            spans = {
                "self_s": dict(recorder.self_s),
                "inclusive_s": dict(recorder.inclusive_s),
                "calls": dict(recorder.calls),
                "layer_calls": recorder.layer_calls(),
            }
        sim.run(until=traffic.start + window_s + DRAIN_S)
        final = counters(world)
    finally:
        if patches is not None:
            patches.uninstall()
    warm_s: Optional[float] = None
    if warm:
        _world, warm_build, warm_connect = timed_setup(workload, seed)
        warm_s = warm_build + warm_connect
    return {
        "build_s": build_s,
        "connect_s": connect_s,
        "warm_s": warm_s,
        "window_sim_s": window_s,
        "slices": timings,
        "peak_rss_mb": peak_rss_mb,
        "window": {name: after[name] - before[name] for name in after},
        "final": final,
        "traffic": traffic.outcome(),
        "spans": spans,
    }

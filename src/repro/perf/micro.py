"""Scalar-vs-batched micro benchmarks with built-in equivalence checks.

Every stage times the same workload through the scalar per-packet path
and the burst path, asserts the two produce identical observable
results, and reports packets (or events) per wall-clock second.  The
numbers are informational: no speedup ratio is a gate.

The documented accounting difference — the only one — is the batching
discount: a burst of N packets pays one EENTER/EEXIT transition pair on
the gateway ledger where the scalar path pays N pairs.  Stage
``vpn_data_channel`` asserts the ledgers differ by exactly that.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import telemetry
from repro.click import configs
from repro.core.ca import CertificateAuthority
from repro.core.enclave_app import EndBoxEnclave, build_endbox_image
from repro.costs import default_cost_model
from repro.netsim.packet import IPv4Packet, UdpDatagram
from repro.netsim.traffic import make_payload
from repro.sgx import IntelAttestationService, SgxPlatform
from repro.sim import Simulator
from repro.vpn.channel import DataChannel, ProtectionMode
from repro.vpn.protocol import OP_DATA, VpnPacket, new_data_packet


@dataclass
class StageResult:
    name: str
    scalar_ops_per_s: float
    batched_ops_per_s: float
    wall_s: float
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.batched_ops_per_s / self.scalar_ops_per_s

    def to_dict(self) -> dict:
        """JSON-friendly form with rates rounded for the report."""
        return {
            "name": self.name,
            "scalar_ops_per_s": round(self.scalar_ops_per_s, 1),
            "batched_ops_per_s": round(self.batched_ops_per_s, 1),
            "speedup": round(self.speedup, 3),
            "wall_s": round(self.wall_s, 4),
            "detail": self.detail,
        }


def _race(scalar_pass, batched_pass, reps: int = 5):
    """Best observed rate for each arm, passes interleaved.

    The harness host is noisy; a load spike during one arm's single
    pass would swing the ratio wildly.  Interleaving S,B,S,B,... and
    taking each arm's best (minimum-time) pass is the standard
    noise-robust estimator for deterministic workloads.
    """
    scalar_best = 0.0
    batched_best = 0.0
    for _ in range(reps):
        ops, seconds = scalar_pass()
        scalar_best = max(scalar_best, ops / seconds)
        ops, seconds = batched_pass()
        batched_best = max(batched_best, ops / seconds)
    return scalar_best, batched_best


def _packets(count: int, payload_bytes: int) -> List[IPv4Packet]:
    payload = make_payload(payload_bytes)
    return [
        IPv4Packet(
            src="10.8.0.2",
            dst="10.0.0.9",
            l4=UdpDatagram(40000 + i % 64, 5001, payload),
        )
        for i in range(count)
    ]


def _fresh_enclave(sim: Optional[Simulator] = None) -> EndBoxEnclave:
    """A provision-free EndBox enclave with the NOP graph loaded."""
    ias = IntelAttestationService()
    ca = CertificateAuthority(ias, seed=b"perf-ca")
    image = build_endbox_image(ca.public_key, default_cost_model())
    ca.whitelist_measurement(image.measure())
    endbox = EndBoxEnclave.create(image, SgxPlatform(ias))
    config = configs.nop_config()
    endbox.gateway.ecall(
        "initialize", config, "", sim=sim or Simulator(), payload_bytes=len(config)
    )
    return endbox


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def bench_vpn_data_channel(n: int, burst: int, payload_bytes: int) -> StageResult:
    """The data-plane ecall per packet vs one ``ecall_batch`` crossing
    of ``process_packet`` per burst (the §IV-A hot path)."""
    endbox = _fresh_enclave()
    gateway = endbox.gateway
    packets = _packets(burst, payload_bytes)
    mode = ProtectionMode.ENCRYPT_AND_MAC.value
    started = time.perf_counter()

    # equivalence: same results, ledgers apart by the transition discount
    gateway.ledger.drain()
    scalar_out = [
        gateway.ecall("process_packet", p, "egress", mode, True, payload_bytes=len(p))
        for p in packets
    ]
    scalar_cost = gateway.ledger.drain()
    calls = [(p, "egress", mode, True) for p in packets]
    batch_out = gateway.ecall_batch(
        "process_packet", calls, payload_bytes=sum(len(p) for p in packets)
    )
    batch_cost = gateway.ledger.drain()
    assert [a for a, _ in scalar_out] == [a for a, _ in batch_out]
    assert [p.serialize() for _, p in scalar_out] == [p.serialize() for _, p in batch_out]
    discount = 2 * gateway.transition_cost * (len(packets) - 1)
    assert math.isclose(scalar_cost - batch_cost, discount, rel_tol=1e-9), (
        scalar_cost,
        batch_cost,
        discount,
    )

    rounds = n // burst
    total_bytes = sum(len(p) for p in packets)
    crossings = {}

    def scalar_pass():
        before = gateway.ecalls.value
        t0 = time.perf_counter()
        for i in range(n):
            p = packets[i % burst]
            gateway.ecall("process_packet", p, "egress", mode, True, payload_bytes=len(p))
            gateway.ledger.drain()
        elapsed = time.perf_counter() - t0
        crossings["scalar"] = (gateway.ecalls.value - before) / n
        return n, elapsed

    def batched_pass():
        before = gateway.ecalls.value
        t0 = time.perf_counter()
        for _ in range(rounds):
            gateway.ecall_batch("process_packet", calls, payload_bytes=total_bytes)
            gateway.ledger.drain()
        elapsed = time.perf_counter() - t0
        crossings["batched"] = (gateway.ecalls.value - before) / (rounds * burst)
        return rounds * burst, elapsed

    scalar, batched = _race(scalar_pass, batched_pass)

    return StageResult(
        "vpn_data_channel",
        scalar,
        batched,
        time.perf_counter() - started,
        {
            "scalar_crossings_per_packet": crossings["scalar"],
            "batched_crossings_per_packet": crossings["batched"],
            "ledger_discount_per_burst": discount,
        },
    )


def bench_channel_crypto(n: int, burst: int, payload_bytes: int) -> StageResult:
    """``protect``/``unprotect`` vs their batch forms (same key, bytes)."""
    payload = make_payload(payload_bytes)
    started = time.perf_counter()

    def channels():
        return (
            DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC),
            DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC),
        )

    # equivalence: identical wire bytes and recovered plaintexts
    tx_a, rx_a = channels()
    tx_b, rx_b = channels()
    scalar_wire = []
    for pid in range(1, burst + 1):
        packet = tx_a.protect(VpnPacket(OP_DATA, 7, pid), payload)
        scalar_wire.append(packet.serialize())
        assert rx_a.unprotect(packet) == payload
    # the batched arm uses the client's fast constructor — the wire
    # bytes must still match the dataclass-built scalar packets exactly
    items = [(new_data_packet(7, pid), payload) for pid in range(1, burst + 1)]
    protected = tx_b.protect_batch(items)
    assert [p.serialize() for p in protected] == scalar_wire
    assert rx_b.unprotect_batch(protected) == [payload] * burst

    rounds = n // burst
    counter = {"pid": 0}

    def scalar_pass():
        tx, rx = channels()
        pid = counter["pid"]
        t0 = time.perf_counter()
        for _ in range(n):
            pid += 1
            packet = tx.protect(VpnPacket(OP_DATA, 7, pid), payload)
            rx.unprotect(packet)
        elapsed = time.perf_counter() - t0
        counter["pid"] = pid
        return n, elapsed

    def batched_pass():
        tx, rx = channels()
        pid = counter["pid"]
        t0 = time.perf_counter()
        for _ in range(rounds):
            items = []
            for _i in range(burst):
                pid += 1
                items.append((new_data_packet(7, pid), payload))
            rx.unprotect_batch(tx.protect_batch(items))
        elapsed = time.perf_counter() - t0
        counter["pid"] = pid
        return rounds * burst, elapsed

    scalar, batched = _race(scalar_pass, batched_pass)

    return StageResult(
        "channel_crypto", scalar, batched, time.perf_counter() - started, {}
    )


def bench_end_to_end(n: int, burst: int, payload_bytes: int) -> StageResult:
    """Full hot loop: enclave crossing, serialize, protect, unprotect."""
    endbox = _fresh_enclave()
    gateway = endbox.gateway
    packets = _packets(burst, payload_bytes)
    mode = ProtectionMode.ENCRYPT_AND_MAC.value
    started = time.perf_counter()

    tx = DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
    rx = DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
    calls = [(p, "egress", mode, True) for p in packets]

    rounds = n // burst
    total_bytes = sum(len(p) for p in packets)
    counter = {"pid": 0}

    def scalar_pass():
        pid = counter["pid"]
        t0 = time.perf_counter()
        for i in range(n):
            p = packets[i % burst]
            _accepted, out = gateway.ecall(
                "process_packet", p, "egress", mode, True, payload_bytes=len(p)
            )
            gateway.ledger.drain()
            pid += 1
            packet = VpnPacket(OP_DATA, 1, pid)
            tx.protect(packet, out.serialize())
            rx.unprotect(packet)
        elapsed = time.perf_counter() - t0
        counter["pid"] = pid
        return n, elapsed

    def batched_pass():
        pid = counter["pid"]
        t0 = time.perf_counter()
        for _ in range(rounds):
            results = gateway.ecall_batch("process_packet", calls, payload_bytes=total_bytes)
            gateway.ledger.drain()
            items = []
            for _accepted, out in results:
                pid += 1
                items.append((new_data_packet(1, pid), out.serialize()))
            rx.unprotect_batch(tx.protect_batch(items))
        elapsed = time.perf_counter() - t0
        counter["pid"] = pid
        return rounds * burst, elapsed

    scalar, batched = _race(scalar_pass, batched_pass)

    return StageResult("end_to_end", scalar, batched, time.perf_counter() - started, {})


def bench_sim_engine(n_events: int = 200_000) -> StageResult:
    """Raw event-dispatch rate of the simulator core (no batching axis:
    scalar and batched columns report the same run)."""
    started = time.perf_counter()
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(0.001)

    for _ in range(4):
        sim.process(ticker())
    before = sim.events_executed
    t0 = time.perf_counter()
    sim.run(until=(n_events / 4) * 0.001)
    wall = time.perf_counter() - t0
    executed = sim.events_executed - before
    rate = executed / wall
    return StageResult(
        "sim_engine",
        rate,
        rate,
        time.perf_counter() - started,
        {"events_executed": float(executed)},
    )


def bench_sim_shards(
    shard_counts=(1, 2, 4, 8),
    n_clients: int = 600,
    horizon_s: float = 0.01,
) -> StageResult:
    """Sharded flow-level swarm runner vs the packet-granularity engine.

    Both arms simulate the *same* fig10-class deployment — ``n_clients``
    identical clients offering 200 Mbps each at one gateway — and both
    count the same per-packet work: client pipeline stages + link
    transfer + gateway stages (:func:`modeled_stage_events`).  The
    scalar arm executes each of those as a heap event in one serial
    :class:`Simulator` (the ~450k events/s ceiling this stage exists to
    measure the escape from); the batched arm is the sharded runner with
    :class:`~repro.netsim.swarm.ClientSwarmSource` flow aggregation,
    whose per-window batch loops do the identical per-packet accounting
    without a heap entry per stage.  The stage's speedup therefore
    measures flow-level aggregation, not parallelism: on a one-CPU host
    the modeled rate falls as shards are added.  ``detail`` records
    ``cpu_count`` so the per-shard-count rates read honestly.

    Determinism evidence rides along: the merged digest of the sharded
    run is recomputed against :func:`repro.sim.parallel.run_serial` on
    the same plan (``digest_match_*`` detail flags, 1.0 = byte-equal).
    """
    from repro.experiments.fig10_swarm import (
        SwarmParams,
        run_packet_reference,
        run_swarm,
    )

    started = time.perf_counter()
    params = SwarmParams(
        n_clients=n_clients, horizon_s=horizon_s, warmup_s=horizon_s / 5
    )
    detail: Dict[str, float] = {"cpu_count": float(os.cpu_count() or 1)}

    t0 = time.perf_counter()
    reference = run_packet_reference(params)
    serial_wall = time.perf_counter() - t0
    serial_rate = reference.modeled_events / serial_wall
    detail["serial_engine_events_per_s"] = round(reference.events_executed / serial_wall, 1)
    detail["serial_modeled_events_per_s"] = round(serial_rate, 1)

    shard_rates: Dict[int, float] = {}
    for count in shard_counts:
        t0 = time.perf_counter()
        sharded = run_swarm(params, count, mode="auto")
        wall = time.perf_counter() - t0
        modeled = sharded.counter("netsim.swarm.steps") + sharded.counter(
            "netsim.swarm.delivered"
        ) + sharded.counter("netsim.swarm.gateway_steps")
        shard_rates[count] = modeled / wall
        detail[f"shards_{count}_modeled_events_per_s"] = round(shard_rates[count], 1)
        detail[f"shards_{count}_engine_events_per_s"] = round(sharded.total_events / wall, 1)
        # determinism evidence: merged digest must equal the serial
        # reference of the same plan, byte for byte
        serial_twin = run_swarm(params, count, mode="serial")
        detail[f"digest_match_{count}"] = float(
            sharded.trace_digest() == serial_twin.trace_digest()
        )

    best = max(count for count in shard_counts if count != 1) if len(shard_counts) > 1 else shard_counts[0]
    headline = 4 if 4 in shard_rates else best
    return StageResult(
        "sim_shards",
        serial_rate,
        shard_rates[headline],
        time.perf_counter() - started,
        detail,
    )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_all(
    n: int = 12_800,
    burst: int = 32,
    payload_bytes: int = 64,
    record_telemetry: bool = False,
) -> dict:
    """Run every stage; returns the ``BENCH_micro.json`` document.

    The whole run executes inside a :func:`repro.telemetry.session`, so
    the document's ``telemetry`` section is a view over the registry:
    enclave transition counts, crypto cache hit rates, Click dispatch
    totals.  ``record_telemetry`` additionally enables spans and the
    recording-gated instruments (per-element timings, queue depths) —
    leave it off when the timing numbers themselves are the product.
    """
    if n % burst:
        raise ValueError("n must be a multiple of burst")
    with telemetry.session(
        recording=record_telemetry, clock=time.perf_counter, label="perf.micro"
    ) as registry:
        stages = [
            bench_vpn_data_channel(n, burst, payload_bytes),
            bench_channel_crypto(n, burst, payload_bytes),
            bench_end_to_end(n, burst, payload_bytes),
            bench_sim_engine(),
            bench_sim_shards(),
        ]
        snapshot = registry.snapshot()
    by_name = {stage.name: stage for stage in stages}
    return {
        "meta": {"n_packets": n, "burst": burst, "payload_bytes": payload_bytes},
        "stages": [stage.to_dict() for stage in stages],
        "events_per_s": round(by_name["sim_engine"].scalar_ops_per_s, 1),
        "shard_events_per_s": round(by_name["sim_shards"].batched_ops_per_s, 1),
        "telemetry": snapshot,
    }


def format_report(doc: dict) -> str:
    """Render a :func:`run_all` document as an aligned text table."""
    lines = [
        f"{'stage':<18} {'scalar/s':>12} {'batched/s':>12} {'speedup':>8}",
        "-" * 54,
    ]
    for stage in doc["stages"]:
        lines.append(
            f"{stage['name']:<18} {stage['scalar_ops_per_s']:>12,.0f} "
            f"{stage['batched_ops_per_s']:>12,.0f} {stage['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def write_json(doc: dict, path: str) -> None:
    """Write a :func:`run_all` document to ``path`` (sorted, indented)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

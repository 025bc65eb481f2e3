"""Metric definitions and the correctness checks on child results.

End-to-end metrics come from untraced runs of one window and from
set-up-only children; per-layer metrics from a traced run of that window
plus an untraced run of it (the tracing overhead is the ratio of the
two).  Every wall time is scaled to the reference machine's speed with
the kernel timings taken next to it (:mod:`bench.speed`).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Tuple

from bench.spans import LAYERS
from bench.speed import REFERENCE_S, slowdown

#: end-to-end metric -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "pkts_per_s": ("packets/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: per-layer metric -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_us_per_pkt": ("us/pkt", "lower") for layer in LAYERS},
    "sim.events_per_pkt": ("events/pkt", "lower"),
    "sim.sim_s_per_wall_s": ("sim_s/s", "higher"),
    "netsim.frames_per_pkt": ("frames/pkt", "lower"),
    "netsim.frames_dropped": ("count", "lower"),
    "sgx.crossings_per_pkt": ("crossings/pkt", "lower"),
    "sgx.burst_mean": ("pkts/crossing", "higher"),
    "click.drops": ("count", "lower"),
    "vpn.rejects": ("count", "lower"),
    "crypto.mac_verifies_per_rx_pkt": ("calls/pkt", "lower"),
    "crypto.keystream_hit_ratio": ("ratio", "higher"),
    "setup.build_s": ("s", "lower"),
    "setup.connect_s": ("s", "lower"),
    "setup.warm_s": ("s", "lower"),
    "model.goodput_mbps": ("sim_Mbit/s", "higher"),
    "model.latency_us.p50": ("sim_us", "lower"),
    "model.latency_us.p99": ("sim_us", "lower"),
    "model.client_cpu_us_per_pkt": ("sim_us/pkt", "lower"),
    "model.gateway_cpu_us_per_pkt": ("sim_us/pkt", "lower"),
    "model.enclave_us_per_pkt": ("sim_us/pkt", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "fail_ratio": ("ratio", "lower"),
}

SIM_RUN = "Simulator.run"
SGX_CROSSINGS = ("EnclaveGateway.ecall", "EnclaveGateway.ecall_batch", "EnclaveGateway.ocall")


def slice_rate(*runs: dict) -> float:
    """Median over the runs' slices of datagrams delivered per wall second,
    each slice scaled by the kernel timing taken just before it."""
    return median(
        delivered / wall * reference / REFERENCE_S
        for run in runs
        for delivered, wall, reference in run["slices"]
        if wall > 0
    )


def window_slowdown(run: dict) -> float:
    """:func:`bench.speed.slowdown` over a run's window."""
    return slowdown(reference for _delivered, _wall, reference in run["slices"])


def window_packets(run: dict) -> int:
    """Datagrams the sink got during the window (the drain excluded)."""
    return sum(delivered for delivered, _wall, _reference in run["slices"])


def fail_ratio(run: dict) -> float:
    """1 - delivered/expected, counting only intact, single deliveries."""
    traffic = run["traffic"]
    return 1.0 - traffic["delivered_once"] / traffic["expected"]


def end_to_end(runs: List[dict], setups: List[dict]) -> Dict[str, float]:
    """The untraced metrics of one workload, from runs of the same window
    and from set-up-only children."""
    return {
        "pkts_per_s": slice_rate(*runs),
        "setup_s": median(setup["setup_s"] / slowdown(setup["reference_s"]) for setup in setups),
        "peak_rss_mb": median(run["peak_rss_mb"] for run in runs),
    }


def per_layer(plain: dict, traced: dict, packet_bytes: int) -> Dict[str, float]:
    """The per-layer metrics from a traced run and its untraced twin."""
    packets = window_packets(traced) or 1
    window, final = traced["window"], traced["final"]
    spans = traced["spans"]
    calls = spans["calls"]
    crossings = sum(calls.get(name, 0) for name in SGX_CROSSINGS)
    lookups = window["keystream_hits"] + window["keystream_misses"]
    traced_slowdown, plain_slowdown = window_slowdown(traced), window_slowdown(plain)
    plain_wall = sum(wall for _delivered, wall, _reference in plain["slices"])
    metrics = {
        f"{layer}.self_us_per_pkt": spans["self_s"].get(layer, 0.0)
        / traced_slowdown
        * 1e6
        / packets
        for layer in LAYERS
    }
    metrics.update(
        {
            "sim.events_per_pkt": window["events"] / packets,
            "sim.sim_s_per_wall_s": plain["window_sim_s"] / (plain_wall / plain_slowdown),
            "netsim.frames_per_pkt": window["frames"] / packets,
            "netsim.frames_dropped": final["frames_dropped"],
            "sgx.crossings_per_pkt": crossings / packets,
            "sgx.burst_mean": window["router_packets"] / crossings if crossings else 0.0,
            "click.drops": final["click_drops"],
            "vpn.rejects": final["vpn_rejects"],
            "crypto.mac_verifies_per_rx_pkt": calls.get("hmac_verify", 0) / packets,
            "crypto.keystream_hit_ratio": window["keystream_hits"] / lookups if lookups else 0.0,
            "setup.build_s": plain["build_s"] / plain_slowdown,
            "setup.connect_s": plain["connect_s"] / plain_slowdown,
            "setup.warm_s": plain["warm_s"] / plain_slowdown,
            "model.goodput_mbps": packets * packet_bytes * 8 / traced["window_sim_s"] / 1e6,
            "model.latency_us.p50": traced["traffic"]["latency_p50_s"] * 1e6,
            "model.latency_us.p99": traced["traffic"]["latency_p99_s"] * 1e6,
            "model.client_cpu_us_per_pkt": window["client_cpu_s"] * 1e6 / packets,
            "model.gateway_cpu_us_per_pkt": window["gateway_cpu_s"] * 1e6 / packets,
            "model.enclave_us_per_pkt": window["enclave_s"] * 1e6 / packets,
            "trace.overhead_ratio": slice_rate(plain) / slice_rate(traced),
            "trace.coverage": 1.0 - spans["self_s"].get("sim", 0.0) / spans["inclusive_s"][SIM_RUN],
            "fail_ratio": fail_ratio(traced),
        }
    )
    return metrics


def traffic_failures(run: dict) -> List[str]:
    """Why a run's traffic was wrong; empty when every check passed."""
    traffic, final = run["traffic"], run["final"]
    failures = []
    if traffic["offered"] != traffic["planned"]:
        failures.append(f"sources sent {traffic['offered']} of {traffic['planned']} datagrams")
    if traffic["duplicates"]:
        failures.append(f"{traffic['duplicates']} datagrams delivered more than once")
    if traffic["corrupt"]:
        failures.append(f"{traffic['corrupt']} deliveries with a damaged payload")
    if traffic["denied_delivered"]:
        failures.append(f"{traffic['denied_delivered']} datagrams to the denied port delivered")
    if final["click_drops"] != traffic["denied"]:
        failures.append(
            f"click dropped {final['click_drops']}, {traffic['denied']} sent to the denied port"
        )
    ratio = fail_ratio(run)
    if ratio != 0:
        failures.append(
            f"fail_ratio {ratio:.6f}: {traffic['delivered_once']} of {traffic['expected']} delivered"
        )
    return failures


def digest_failures(runs: List[dict]) -> List[str]:
    """Runs of the same window must deliver the same datagrams at the same
    sim times, traced or not: the wrappers may not perturb the simulation."""
    digests = {run["traffic"]["digest"] for run in runs}
    if len(digests) > 1:
        return [f"{len(digests)} different delivery digests over {len(runs)} runs of one window"]
    return []


def layer_failures(traced: dict) -> List[str]:
    """Layers whose spans recorded no call in the traced window."""
    silent = [layer for layer, count in traced["spans"]["layer_calls"].items() if not count]
    if silent:
        return [f"no span recorded a call in layer(s) {', '.join(silent)}"]
    return []


def attempted_failed(run: dict) -> Tuple[int, int]:
    """(datagrams offered, datagrams without the right outcome)."""
    traffic = run["traffic"]
    missing = traffic["expected"] - traffic["delivered_once"]
    return traffic["offered"], missing + traffic["denied_delivered"]

"""Differential isolation suite: interleaved sims == fresh-process runs.

The contract the SS6xx pass enforces statically is proven dynamically
here: two Simulators stepped *interleaved in one process* must produce
``trace_digest()``s byte-identical to the same workloads run alone in
fresh interpreter processes.  Any process-global state leaking between
sims (warm caches changing telemetry, a stolen current-registry
pointer, class-attribute crosstalk) breaks the equality.  The
process-wide pure memos (the HMAC pad states, RSA key pairs, interned
addresses) are shared and warm in the interleaved runs and cold in the
fresh ones, so the equality also shows they change no byte.

The module doubles as its own subprocess worker: ``python -m
tests.test_shard_isolation <rate_bps>`` prints the digest of one
isolated run, which the tests compare against in-process results.
"""

import subprocess
import sys
from pathlib import Path

from repro import telemetry
from repro.fleet import DeploymentSpec
from repro.faults import trace_digest
from repro.netsim.traffic import UdpSink, UdpTrafficSource
from repro.telemetry.registry import Registry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: two distinguishable workloads (different offered load)
RATE_A = 2e5
RATE_B = 4e5
#: connect_all() runs setup to t=10.0; drive two seconds of traffic past it
UNTIL = 12.0


def build_world(rate_bps):
    """One recording deployment with a UDP source/sink pair at ``rate_bps``."""
    with telemetry.session(recording=True):
        world = DeploymentSpec(
            clients=1,
            setup="endbox_sgx",
            use_case="NOP",
            ping_interval=0.25,
            charge_cpu=False,
        ).build()
    world.connect_all()
    sink = UdpSink(world.internal, 6002)
    UdpTrafficSource(
        world.clients[0].host,
        world.internal.address,
        6002,
        rate_bps=rate_bps,
        packet_bytes=200,
    ).start()
    return world, sink


def drain(sim, until=UNTIL):
    """Step ``sim`` to ``until`` (same event order as ``run(until=...)``)."""
    while True:
        upcoming = sim.peek()
        if upcoming is None or upcoming > until:
            return
        sim.step()


def run_isolated(rate_bps):
    """Build, drive and digest one world (single-sim reference)."""
    world, sink = build_world(rate_bps)
    drain(world.sim)
    return trace_digest(world.sim.telemetry), sink.packets


def run_interleaved():
    """Two worlds stepped alternately in one process."""
    world_a, sink_a = build_world(RATE_A)
    world_b, sink_b = build_world(RATE_B)
    pending = [world_a.sim, world_b.sim]
    while pending:
        still = []
        for sim in pending:
            upcoming = sim.peek()
            if upcoming is not None and upcoming <= UNTIL:
                sim.step()
                still.append(sim)
        pending = still
    return (
        (trace_digest(world_a.sim.telemetry), sink_a.packets),
        (trace_digest(world_b.sim.telemetry), sink_b.packets),
    )


def run_in_fresh_process(rate_bps):
    """The same isolated workload in a brand-new interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "tests.test_shard_isolation", str(rate_bps)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": f"{SRC}:{REPO_ROOT}", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    digest, packets = result.stdout.split()
    return digest, int(packets)


# ----------------------------------------------------------------------
# the differential contracts
# ----------------------------------------------------------------------
def test_interleaved_sims_match_fresh_process_runs():
    fresh_a = run_in_fresh_process(RATE_A)
    fresh_b = run_in_fresh_process(RATE_B)
    inter_a, inter_b = run_interleaved()
    assert inter_a[1] > 0 and inter_b[1] > 0  # traffic actually flowed
    assert inter_b[1] > inter_a[1]  # the workloads are distinguishable
    assert inter_a == fresh_a
    assert inter_b == fresh_b


def test_sequential_in_process_runs_match_fresh_process():
    # a second sim in a warm process must not see the first one's state
    first = run_isolated(RATE_A)
    second = run_isolated(RATE_B)
    assert first == run_in_fresh_process(RATE_A)
    assert second == run_in_fresh_process(RATE_B)


def test_interleaving_order_does_not_matter():
    inter = run_interleaved()
    # rebuild in the opposite construction order; digests are per-world
    world_b, sink_b = build_world(RATE_B)
    world_a, sink_a = build_world(RATE_A)
    pending = [world_b.sim, world_a.sim]
    while pending:
        still = []
        for sim in pending:
            upcoming = sim.peek()
            if upcoming is not None and upcoming <= UNTIL:
                sim.step()
                still.append(sim)
        pending = still
    assert (trace_digest(world_a.sim.telemetry), sink_a.packets) == inter[0]
    assert (trace_digest(world_b.sim.telemetry), sink_b.packets) == inter[1]


def test_step_restores_previous_current_registry():
    outer = Registry.current()
    world, _sink = build_world(RATE_A)
    # building the world moved "current" to its own registry tree;
    # install a fresh scope and prove step() puts it back afterwards
    from repro.telemetry.registry import _set_current

    _set_current(outer)
    try:
        assert world.sim.step() is True
        assert Registry.current() is outer
    finally:
        _set_current(outer)


def test_components_built_mid_run_attach_to_the_running_sim():
    world, _sink = build_world(RATE_A)
    attached = {}

    def probe():
        attached["registry"] = Registry.current()

    world.sim.schedule(0.5, probe)
    # make another world current *before* running the first: without the
    # run()/step() save-restore, the probe would see the wrong registry
    other, _ = build_world(RATE_B)
    assert Registry.current() is other.sim.telemetry
    drain(world.sim)
    assert attached["registry"] is world.sim.telemetry


if __name__ == "__main__":
    digest, packets = run_isolated(float(sys.argv[1]))
    print(digest, packets)

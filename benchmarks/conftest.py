"""Benchmark-suite configuration.

Each benchmark regenerates one table/figure of the paper.  The
simulations are deterministic, so a single round per benchmark is
meaningful; pytest-benchmark still reports wall-clock cost of the
regeneration.  Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest

from repro import telemetry


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the harness.

    Wall-clock alone says little about a simulation bench, so the run
    executes inside a telemetry session, whose summed counts of the
    run's simulators give the ops/sec rates attached as ``extra_info`` —
    they land in ``--benchmark-json`` output next to the timing stats.
    """
    with telemetry.session() as collected:
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )
    events = collected.value("sim.engine.events")
    packets = collected.value("click.router.packets")
    benchmark.extra_info["sim_events_executed"] = events
    benchmark.extra_info["click_packets_processed"] = packets
    elapsed = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean = getattr(elapsed, "mean", 0.0) if elapsed is not None else 0.0
    if mean > 0:
        benchmark.extra_info["sim_events_per_s"] = round(events / mean, 1)
        benchmark.extra_info["click_packets_per_s"] = round(packets / mean, 1)
    return result


@pytest.fixture()
def once():
    return run_once

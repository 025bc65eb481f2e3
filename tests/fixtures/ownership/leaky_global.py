# module: repro.netsim.fixture_global
# expect: SS601
"""Seeded ownership leak: sim-driven code mutates a module global."""

_DELIVERED = []


def on_deliver(packet):
    """Runs under the simulator, appends into process-wide storage."""
    _DELIVERED.append(packet)


def install(sim):
    sim.schedule(0.0, on_deliver)

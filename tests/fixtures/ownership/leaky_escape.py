# module: repro.netsim.fixture_escape
# expect: SS602
"""Seeded ownership leak: a Simulator escapes into global storage."""

_ACTIVE_WORLDS = {}


def announce(sim, name):
    """Stores the simulator itself process-wide, where later simulators reach it."""
    _ACTIVE_WORLDS[name] = sim


def install(sim):
    sim.schedule(0.0, lambda: announce(sim, "primary"))

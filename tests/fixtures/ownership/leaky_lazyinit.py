# module: repro.netsim.fixture_lazyinit
# expect: SS605
"""Seeded ownership leak: non-reentrant lazy init of shared state."""

_PORT_TABLE = None


def port_table():
    """The first simulator to call this builds the table every later one uses."""
    global _PORT_TABLE
    if _PORT_TABLE is None:
        _PORT_TABLE = {"http": 80, "https": 443}
    return _PORT_TABLE


def install(sim):
    sim.schedule(0.0, lambda: port_table())

# module: repro.netsim.fixture_cache
# expect: SS603
"""Seeded ownership leak: a process-wide cache filled on a sim path."""

_ROUTE_CACHE = {}


def best_route(dst):
    """Classic process-global memo; simulators warm each other's entries."""
    route = _ROUTE_CACHE.get(dst)
    if route is None:
        route = [dst]
        _ROUTE_CACHE[dst] = route
    return route


def install(sim):
    sim.schedule(0.0, lambda: best_route("10.0.0.1"))

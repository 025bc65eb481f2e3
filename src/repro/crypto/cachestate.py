"""Per-registry HMAC pad-state cache: shard-safe and size-bounded.

The HMAC pad states (:mod:`repro.crypto.hmac`) are a pure function of
the key, cached so each MAC costs two hash copies instead of two extra
SHA-256 compressions.  A module-global dict would be exactly the state
class the SS6xx shard-safety pass forbids: two Simulators sharing it
observe each other's entries (warm-start nondeterminism) and, under the
parallel sim core, race on it.

So the cache is scoped to the owning telemetry
:class:`~repro.telemetry.registry.Registry` instead: every Simulator
owns a fresh registry, so it also owns a fresh cache with exactly the
simulator's lifetime, and :func:`~repro.telemetry.registry.fork_isolated`
tests get an isolated cache for free.

The cache is **bounded** at :data:`HMAC_PAD_CACHE_ENTRIES` keys, and
eviction is deterministic — strictly insertion-ordered FIFO, no wall
time, no randomness — so two replays of the same seed evict the same
entries in the same order, and every cached value stays byte-identical
to recomputation (hence invisible to trace digests).
"""

from __future__ import annotations

from repro.telemetry.registry import Registry

#: key -> (inner, outer) pad states (:mod:`repro.crypto.hmac`).
HMAC_PAD_CACHE_ENTRIES = 4096


def current_pads() -> dict:
    """The pad-state cache of the currently-attached registry.

    During a :meth:`~repro.sim.engine.Simulator.run` the simulator's
    own registry is current, so sim-driven MACs land in a per-simulator
    cache; outside any simulator this falls back to the process root.
    The cache is stored as an attribute on the registry object so it
    dies with it; single-shard code owns its registry outright, so the
    create-on-miss here is not a cross-shard race.
    """
    registry = Registry.current()
    pads = getattr(registry, "_hmac_pads", None)
    if pads is None:
        pads = registry._hmac_pads = {}
    return pads

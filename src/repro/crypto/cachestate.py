"""Per-registry crypto cache state: shard-safe, size-bounded caches.

The PR-2 performance caches (AES key schedules, keystream bytes, HMAC
pad states) used to be module globals — one dict per process.  That is
exactly the state class the SS6xx shard-safety pass forbids: two
Simulators sharing a cache observe each other's entries (warm-start
nondeterminism) and, under the planned parallel sim core, race on it.

This module scopes those caches to the owning telemetry
:class:`~repro.telemetry.registry.Registry` instead: every Simulator
owns a fresh registry, so it also owns fresh caches with exactly the
simulator's lifetime, and :func:`~repro.telemetry.registry.fork_isolated`
tests get isolated caches for free.  Within one simulator the hit rates
are unchanged — the VPN's protect-at-sender / unprotect-at-receiver
double derivation happens under one registry — while cross-simulator
reuse (which trace digests could never rely on anyway) is gone by
construction.

Every cache is **bounded**, and this module owns the caps: a
million-packet run derives a keystream (and now a MAC record) per
(key, nonce), so an uncapped dict is a linear memory leak.  Eviction is
deterministic — strictly insertion-ordered FIFO via
:func:`evict_to_cap`, no wall time, no randomness — so two replays of
the same seed evict the same entries in the same order and every cached
value remains a pure function of its key (byte-identical to
recomputation, hence invisible to trace digests).

The cache *effectiveness counters* stay module-global monotone ints in
their owning modules, bridged per-registry by the telemetry
``register_collector`` delta mechanism; see the OWNERSHIP waivers in
:mod:`repro.analysis.ownergraph`.
"""

from __future__ import annotations

from repro.telemetry.registry import Registry

#: (key, nonce) -> keystream bytes (:mod:`repro.crypto.stream`).
KEYSTREAM_CACHE_ENTRIES = 2048
#: key -> (inner, outer) pad states (:mod:`repro.crypto.hmac`).
HMAC_PAD_CACHE_ENTRIES = 4096
#: key -> AES round keys (:mod:`repro.crypto.aes`).
AES_SCHEDULE_CACHE_ENTRIES = 1024


def evict_to_cap(cache: dict, cap: int) -> int:
    """Deterministically evict oldest-inserted entries down to ``cap``.

    Returns the number of entries evicted.  Plain dicts iterate in
    insertion order, so ``next(iter(cache))`` is the oldest entry —
    FIFO eviction with no timestamps and no bookkeeping beyond the dict
    itself.  Hot paths inline the one-entry case (``if len(cache) >=
    cap: del cache[next(iter(cache))]``); this helper exists for cold
    callers and for tests that shrink a cache after a cap change.
    """
    evicted = 0
    while len(cache) > cap:
        del cache[next(iter(cache))]
        evicted += 1
    return evicted


class CryptoCaches:
    """The per-registry cache block; one per Registry, created on demand."""

    __slots__ = ("aes_schedules", "keystreams", "hmac_pads")

    def __init__(self) -> None:
        #: key -> 11 AES round keys (:mod:`repro.crypto.aes`)
        self.aes_schedules: dict = {}
        #: (key, nonce) -> keystream bytes (:mod:`repro.crypto.stream`)
        self.keystreams: dict = {}
        #: key -> (inner, outer) pad states (:mod:`repro.crypto.hmac`)
        self.hmac_pads: dict = {}


def caches_for(registry: Registry) -> CryptoCaches:
    """The cache block owned by ``registry``, created on first use.

    Stored as an attribute on the registry object so the caches die
    with it; single-shard code owns its registry outright, so the
    create-on-miss here is not a cross-shard race.
    """
    caches = getattr(registry, "_crypto_caches", None)
    if caches is None:
        caches = CryptoCaches()
        registry._crypto_caches = caches
    return caches


def current_caches() -> CryptoCaches:
    """The cache block of the currently-attached registry.

    During a :meth:`~repro.sim.engine.Simulator.run` the simulator's
    own registry is current, so sim-driven crypto lands in per-simulator
    caches; outside any simulator this falls back to the process root.
    """
    return caches_for(Registry.current())

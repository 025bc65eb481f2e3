"""Canonical instrument name registry.

Every telemetry instrument is keyed by a dotted ``subsystem.object.event``
name (three or more lowercase segments, e.g. ``sgx.gateway.ecalls``).
Names must be :func:`register`-ed — with a kind, a unit and a help
string — before any :class:`~repro.telemetry.registry.Registry` will
hand out an instrument for them.  This keeps the namespace flat,
greppable and collision-free: two subsystems cannot silently count into
the same counter, and exports can annotate every value with its unit.

Registration is idempotent (re-registering an identical name is a
no-op) but *conflicting* re-registration — same name, different kind —
raises :class:`TelemetryNameError`, because it always indicates two
components fighting over one name.

The names used by the core instrumentation (sim engine, Click router,
SGX gateway/EPC, crypto caches, VPN channels, netsim links) are
registered at import time at the bottom of this module; dynamically
shaped names (per-Click-element counters, perf-stage gauges) are
registered by their owners when first needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

#: a name is ``segment(.segment){2,}``: lowercase snake segments, at
#: least three deep (subsystem, object, event).
NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$")

#: the instrument kinds a name may be registered as.
KINDS: Tuple[str, ...] = ("counter", "gauge", "histogram", "span")


class TelemetryNameError(ValueError):
    """Raised for malformed, unregistered, or conflicting names."""


@dataclass(frozen=True)
class NameInfo:
    """Registered metadata for one canonical instrument name."""

    #: the dotted ``subsystem.object.event`` name.
    name: str
    #: one of :data:`KINDS`.
    kind: str
    #: human unit ("packets", "bytes", "seconds", ...); may be empty.
    unit: str = ""
    #: one-line description for exports.
    help: str = ""


_NAMES: Dict[str, NameInfo] = {}


def register(name: str, kind: str, unit: str = "", help: str = "") -> str:
    """Register *name* as an instrument of *kind*; return the name.

    Idempotent for identical registrations; raises
    :class:`TelemetryNameError` on a malformed name, unknown kind, or a
    kind conflict with an earlier registration.
    """
    if kind not in KINDS:
        raise TelemetryNameError(f"unknown instrument kind {kind!r} for {name!r}")
    if not NAME_PATTERN.match(name):
        raise TelemetryNameError(
            f"instrument name {name!r} must be dotted subsystem.object.event "
            "(three or more lowercase segments)"
        )
    existing = _NAMES.get(name)
    if existing is not None:
        if existing.kind != kind:
            raise TelemetryNameError(
                f"name {name!r} already registered as {existing.kind}, not {kind}"
            )
        return name  # idempotent; keep the first unit/help
    _NAMES[name] = NameInfo(name=name, kind=kind, unit=unit, help=help)
    return name


def require(name: str, kind: str) -> NameInfo:
    """Return the :class:`NameInfo` for *name*, asserting it is a *kind*."""
    info_ = _NAMES.get(name)
    if info_ is None:
        raise TelemetryNameError(
            f"instrument name {name!r} is not registered; call "
            "repro.telemetry.names.register() first"
        )
    if info_.kind != kind:
        raise TelemetryNameError(f"name {name!r} is a {info_.kind}, not a {kind}")
    return info_


def info(name: str) -> NameInfo:
    """Return the :class:`NameInfo` for *name* (raises if unregistered)."""
    try:
        return _NAMES[name]
    except KeyError:
        raise TelemetryNameError(f"instrument name {name!r} is not registered") from None


def is_registered(name: str) -> bool:
    """True iff *name* has been registered."""
    return name in _NAMES


def registered_names() -> Tuple[str, ...]:
    """All registered names, sorted."""
    return tuple(sorted(_NAMES))


# ----------------------------------------------------------------------
# core instrumentation names
# ----------------------------------------------------------------------
# simulation engine
register("sim.engine.events", "counter", "events", "events executed by Simulator.run/step")

# Click dispatch (per-element names like click.<element>.packets are
# registered by Router.charge when instrumentation is enabled)
register("click.router.packets", "counter", "packets", "packets entering Router.process[_batch]")

# SGX enclave boundary + paging
register("sgx.gateway.ecalls", "counter", "calls", "synchronous + batched ecall transitions")
register("sgx.gateway.ocalls", "counter", "calls", "ocall transitions out of the enclave")
register("sgx.gateway.exitless", "counter", "calls", "ecalls serviced exitlessly (no HW transition)")
register("sgx.epc.pages_allocated", "counter", "pages", "EPC pages allocated")
register("sgx.epc.pages_freed", "counter", "pages", "EPC pages freed")
register("sgx.epc.page_faults", "counter", "faults", "expected EPC page faults charged by the cost model")

# retired keystream-cache counters: the cipher keeps no cache, so
# nothing increments them; registered only so that readers written
# against them (bench/'s keystream hit ratio) still resolve, reading 0
register("crypto.stream.cache_hits", "counter", "lookups", "retired: always 0")
register("crypto.stream.cache_misses", "counter", "lookups", "retired: always 0")

# VPN data + control channels
register("vpn.channel.packets_protected", "counter", "packets", "data-channel packets protected")
register("vpn.channel.packets_rejected", "counter", "packets", "data-channel packets rejected on unprotect")
register("vpn.channel.bytes_protected", "counter", "bytes", "plaintext bytes entering protect()")
register("vpn.channel.bytes_unprotected", "counter", "bytes", "plaintext bytes recovered by unprotect()")
register("vpn.control.packets_sent", "counter", "packets", "control-channel packets sent")
register("vpn.control.bytes_sent", "counter", "bytes", "control-channel payload bytes sent")

# netsim links
register("netsim.link.frames_sent", "counter", "frames", "frames accepted for transmission")
register("netsim.link.frames_dropped", "counter", "frames", "frames dropped at a full queue")
register("netsim.link.frames_lost", "counter", "frames", "frames lost in flight")
register("netsim.link.bytes_delivered", "counter", "bytes", "payload bytes delivered")
register("netsim.link.queue_depth", "histogram", "frames", "queue occupancy sampled at enqueue")

# multi-gateway fleet (repro.fleet): balancer decisions and gateway-side
# session continuity.  "picks" counts balancer lookups, "remaps" counts
# assignment changes forced by ring membership / gateway health, and
# "migrations" counts executed sealed-state client migrations; on the
# gateway side "sessions_resumed" counts migrated sessions adopted from
# an exported record and "stale_rejected" counts stale-version traffic
# refused after its grace deadline.
register("fleet.balancer.picks", "counter", "lookups", "client->gateway balancer lookups")
register("fleet.balancer.remaps", "counter", "clients", "client->gateway assignment changes")
register("fleet.balancer.migrations", "counter", "clients", "sealed-state client migrations executed")
register("fleet.gateway.sessions_resumed", "counter", "sessions", "migrated sessions resumed from an exported record")
register("fleet.gateway.stale_rejected", "counter", "packets", "stale-version traffic rejected after the grace deadline")
register("fleet.gateway.stale_admitted", "counter", "packets", "stale-version traffic admitted after the grace deadline (tripwire; must stay 0)")

# spans
register("experiment.runner.run", "span", "seconds", "one experiment end to end")
register("click.hotswap.swap", "span", "seconds", "one hot-swap reconfiguration")

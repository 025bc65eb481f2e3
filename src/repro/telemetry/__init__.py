"""Unified observability layer: deterministic counters and histograms.

``repro.telemetry`` replaces the ad-hoc counters that used to live in
``sim/engine``, ``sgx/gateway``, ``crypto/stream``, ``vpn/channel`` and
``benchmarks/conftest`` with one substrate:

* **instruments** — :class:`~repro.telemetry.registry.Counter` and
  :class:`~repro.telemetry.registry.Histogram`, keyed by a canonical
  ``subsystem.object.event`` name registry (:mod:`repro.telemetry.names`);
* **registries** (:class:`~repro.telemetry.registry.Registry`), one flat
  registry per Simulator, so an increment is one add and a fresh
  simulator starts from zero;
* **sessions** (:func:`~repro.telemetry.registry.session`), which
  collect the registries of the simulators built inside them and sum
  them at read time;
* **exporters** (:mod:`repro.telemetry.export`) rendering any snapshot
  as a JSON artifact.

Quickstart::

    from repro import telemetry
    with telemetry.session(recording=True) as collected:
        run_experiment()                       # Simulators are collected
    print(collected.value("sim.engine.events"))
    telemetry.write_json(collected, "telemetry.json")

Everything is deterministic: nothing here reads a clock, and the module
is *not* on the DET4xx allowlist — it lints clean on its own.
"""

from repro.telemetry.export import build_artifact, to_json, write_json
from repro.telemetry.names import (
    NameInfo,
    TelemetryNameError,
    info,
    is_registered,
    register,
)
from repro.telemetry.registry import (
    Counter,
    Histogram,
    Registry,
    Session,
    TelemetryError,
    session,
)

__all__ = [
    "Counter",
    "Histogram",
    "NameInfo",
    "Registry",
    "Session",
    "TelemetryError",
    "TelemetryNameError",
    "build_artifact",
    "info",
    "is_registered",
    "register",
    "session",
    "to_json",
    "write_json",
]

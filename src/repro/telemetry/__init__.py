"""Unified observability layer: deterministic metrics + tracing.

``repro.telemetry`` replaces the ad-hoc counters that used to live in
``sim/engine``, ``sgx/gateway``, ``crypto/stream``, ``vpn/channel`` and
``benchmarks/conftest`` with one substrate:

* **instruments** — :class:`~repro.telemetry.registry.Counter`,
  :class:`~repro.telemetry.registry.Gauge`,
  :class:`~repro.telemetry.registry.Histogram`, and nestable spans —
  keyed by a canonical ``subsystem.object.event`` name registry
  (:mod:`repro.telemetry.names`);
* **registries** (:class:`~repro.telemetry.registry.Registry`) forming a
  mirror tree — per-simulator → session → process root — which gives
  counters the lifetime of the component that owns them while keeping
  aggregate views free;
* **exporters** (:mod:`repro.telemetry.export`) rendering any snapshot
  as a JSON artifact, CSV, or a one-shot text summary.

Quickstart::

    from repro import telemetry
    with telemetry.session(recording=True) as reg:
        run_experiment()                       # Simulators attach automatically
        print(telemetry.summary(reg))
        telemetry.write_json(reg, "telemetry.json")

Everything is deterministic: span timestamps come from the simulated
clock, never the wall clock, and the module is *not* on the DET4xx
allowlist — it lints clean on its own.
"""

from repro.telemetry.export import (
    build_artifact,
    summary,
    to_csv,
    to_json,
    write_csv,
    write_json,
)
from repro.telemetry.names import (
    NameInfo,
    TelemetryNameError,
    info,
    is_registered,
    register,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    TelemetryError,
    fork_isolated,
    session,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NameInfo",
    "Registry",
    "TelemetryError",
    "TelemetryNameError",
    "build_artifact",
    "fork_isolated",
    "info",
    "is_registered",
    "register",
    "session",
    "summary",
    "to_csv",
    "to_json",
    "write_csv",
    "write_json",
]

"""Exporter: the self-describing JSON artifact.

It renders the plain-data snapshot produced by
:meth:`repro.telemetry.registry.Registry.snapshot` or
:meth:`repro.telemetry.registry.Session.snapshot`.  Only registered
numeric instrument values leave this module — no payloads, no key
material — which is what keeps the artifacts clean under the TF5xx
taint pass; determinism (DET4xx) holds because nothing here reads a
clock.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.telemetry import names as _names

#: schema version stamped into every artifact.
ARTIFACT_VERSION = 1

Snapshot = Dict[str, Any]


def _as_snapshot(source: Any) -> Snapshot:
    """Accept a registry, a session or an already-taken snapshot."""
    return source if isinstance(source, dict) else source.snapshot()


def build_artifact(source: Any, meta: Optional[Dict[str, Any]] = None) -> Snapshot:
    """Wrap a snapshot into a self-describing artifact document.

    Adds the schema version, caller-supplied metadata, and per-name
    unit/help annotations from the name registry.
    """
    snap = _as_snapshot(source)
    present = set(snap.get("counters", {}))
    present.update(snap.get("histograms", {}))
    annotations = {}
    for name in sorted(present):
        if _names.is_registered(name):
            info = _names.info(name)
            annotations[name] = {"kind": info.kind, "unit": info.unit, "help": info.help}
    return {
        "version": ARTIFACT_VERSION,
        "meta": dict(meta or {}),
        "names": annotations,
        "telemetry": snap,
    }


def to_json(source: Any, meta: Optional[Dict[str, Any]] = None) -> str:
    """Render an artifact document as deterministic (sorted-key) JSON."""
    return json.dumps(build_artifact(source, meta), indent=2, sort_keys=True)


def write_json(source: Any, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
    """Write the JSON artifact to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(source, meta))
        fh.write("\n")

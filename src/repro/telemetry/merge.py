"""Deterministic merge of per-shard registry snapshots.

The sharded runner (:mod:`repro.sim.parallel`) gives every shard its own
:class:`~repro.telemetry.registry.Registry` mirror tree; at the end of a
run the per-shard :meth:`~repro.telemetry.registry.Registry.snapshot`
documents are folded into one snapshot-shaped document as if a single
registry had observed the whole deployment:

* **counters** — summed per name (an increment happened exactly once on
  exactly one shard);
* **histograms** — bucket counts, totals and observation counts summed;
  min/max combined; all shards must agree on a name's bounds;
* **gauges** — last-write-wins *by shard order* (shard 0 first).  A
  gauge's merged value therefore depends on the partition, so scenarios
  that must digest-match their serial runs avoid gauges;
* **spans** — concatenated shard-major.  Span records interleave
  differently than a serial run would, so digest-sensitive scenarios
  keep ``recording`` off;
* **label/recording** — taken from shard 0.

Merging one snapshot returns it value-identical, which is what makes
``shard_count=1`` digests byte-identical to plain serial runs.

:func:`merged_trace_digest` hashes the merged snapshot exactly as
:func:`repro.faults.injector.trace_digest` hashes a serial one, so the
two digests are directly comparable.
"""

from __future__ import annotations

import copy
from hashlib import sha256
from typing import Any, Dict, List, Sequence

from repro.telemetry.export import to_json
from repro.telemetry.registry import TelemetryError

Snapshot = Dict[str, Any]


def merge_snapshots(snapshots: Sequence[Snapshot]) -> Snapshot:
    """Fold per-shard snapshots into one snapshot-shaped document."""
    if not snapshots:
        raise TelemetryError("merge_snapshots() requires at least one snapshot")
    first = snapshots[0]
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    spans: List[Dict[str, Any]] = []
    spans_dropped = 0
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snap.get("gauges", {}))
        for name, hist in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = copy.deepcopy(hist)
                continue
            if merged["bounds"] != hist["bounds"]:
                raise TelemetryError(
                    f"histogram {name!r} bounds disagree across shards: "
                    f"{merged['bounds']} vs {hist['bounds']}"
                )
            merged["counts"] = [a + b for a, b in zip(merged["counts"], hist["counts"])]
            merged["count"] += hist["count"]
            merged["sum"] += hist["sum"]
            for key, pick in (("min", min), ("max", max)):
                if hist[key] is not None:
                    merged[key] = (
                        hist[key] if merged[key] is None else pick(merged[key], hist[key])
                    )
        spans.extend(copy.deepcopy(snap.get("spans", [])))
        spans_dropped += snap.get("spans_dropped", 0)
    return {
        "label": first.get("label", "simulator"),
        "recording": first.get("recording", False),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
        "spans": spans,
        "spans_dropped": spans_dropped,
    }


def merged_trace_digest(snapshots: Sequence[Snapshot]) -> str:
    """Hex digest over the merged snapshot.

    Byte-identical to :func:`repro.faults.injector.trace_digest` of a
    serial run whenever the sharded execution performed the same work —
    the determinism contract ``make check`` smokes.
    """
    return sha256(to_json(merge_snapshots(snapshots)).encode()).hexdigest()

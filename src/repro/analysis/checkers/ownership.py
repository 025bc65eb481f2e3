"""Shard-safety lint (SS6xx) and view lifetimes (HP705), machine-checked.

ROADMAP item 1 shards the simulation across parallel workers.  That
refactor is only sound if everything a shard touches is owned by its
own :class:`~repro.sim.engine.Simulator` — module globals, class
attributes and process-wide caches written from sim-driven code are
shared across shards and diverge or race.  This pass runs the
whole-program ownership engine of :mod:`~repro.analysis.ownergraph`
and reports:

* **SS601** — module-level mutable globals mutated from sim-driven code.
* **SS602** — Simulator-owned objects escaping into process-global
  storage (cross-shard leakage).
* **SS603** — process-wide caches/registries/counters touched on sim
  paths (the fix is per-Simulator or telemetry-registry scoping).
* **SS604** — shared class attributes mutated from instance methods.
* **SS605** — non-reentrant lazy initialisation of shared state.
* **HP705** — a ``memoryview`` over a reused or mutated buffer escaping
  by return or store, checked in every function (a view that outlives
  its bytes is wrong whether or not a simulator drives the code).

Deliberately shared state is *waived*: inline
``# endbox-lint: shared(SS601)`` on the offending line (``SS6xx``
covers the family), or an entry in ``ownergraph.OWNERSHIP`` carrying
the reviewed justification — the telemetry name registry and the RSA
key-pair memo live there.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.analysis.callgraph import CallGraph, to_findings
from repro.analysis.engine import Checker
from repro.analysis.findings import Finding
from repro.analysis.ownergraph import OWNERSHIP, OWNERSHIP_RULES, OwnershipAnalysis


class OwnershipChecker(Checker):
    name = "ownership"
    rules = dict(OWNERSHIP_RULES)

    def __init__(self) -> None:
        #: (finding, justification) pairs removed by a waiver, kept for
        #: reporting/tests (a waiver that matches nothing is stale)
        self.waived: List[Tuple[Finding, str]] = []

    def check_program(self, graph: CallGraph) -> Iterable[Finding]:
        """SS6xx and HP705 findings left after inline and registry waivers."""
        hits = OwnershipAnalysis(graph).run()
        return to_findings(hits, "shared", OWNERSHIP, self.waived)

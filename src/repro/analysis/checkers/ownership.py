"""Shard-safety lint (SS6xx): state ownership, machine-checked.

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

Deliberately shared state is *waived*: inline
``# endbox-lint: shared(SS601)`` on the offending line (``SS6xx``
covers the family), or an entry in ``ownergraph.OWNERSHIP`` carrying
the reviewed justification — the telemetry name registry and the RSA
key-pair memo live there.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.analysis.engine import Checker, ModuleInfo
from repro.analysis.findings import Finding, Severity
from repro.analysis.ownergraph import (
    SS_RULES,
    OwnershipAnalysis,
    RawOwnershipFinding,
    ownership_waived,
    shared_rules,
)


class OwnershipChecker(Checker):
    name = "ownership"
    rules = dict(SS_RULES)
    scope = "program"

    def __init__(self) -> None:
        self._modules: List[ModuleInfo] = []
        #: (finding, justification) pairs removed by a waiver, kept for
        #: reporting/tests (a waiver that matches nothing is stale)
        self.waived: List[Tuple[Finding, str]] = []

    def begin(self, modules: Sequence[ModuleInfo]) -> None:
        """Receive the whole module set before per-module checks run."""
        self._modules = list(modules)

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()  # reachability is inherently cross-module; see finish()

    def finish(self) -> Iterable[Finding]:
        if not self._modules:
            return []
        raw = OwnershipAnalysis(self._modules).run()
        findings: List[Finding] = []
        for hit in raw:
            finding = self._to_finding(hit)
            if self._waived(hit, finding):
                continue
            findings.append(finding)
        self._modules = []
        return findings

    # ------------------------------------------------------------------
    def _to_finding(self, hit: RawOwnershipFinding) -> Finding:
        return self.finding(
            hit.rule,
            Severity.ERROR,
            hit.module,
            hit.node,
            hit.message,
            symbol=hit.symbol,
        )

    def _waived(self, hit: RawOwnershipFinding, finding: Finding) -> bool:
        """Inline ``shared(...)`` comment or OWNERSHIP registry match."""
        rules = shared_rules(hit.module.line_text(finding.line))
        if rules is not None and (finding.rule in rules or "SS6xx" in rules):
            self.waived.append((finding, "inline shared annotation"))
            return True
        entry = ownership_waived(finding)
        if entry is not None:
            self.waived.append((finding, entry.note))
            return True
        return False

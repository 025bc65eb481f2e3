"""Hot-path hygiene lint (HP7xx): the zero-copy worklist, machine-checked.

ROADMAP item 4 moves the packet path onto ``memoryview``/``bytearray``
zero-copy slices end-to-end.  That refactor needs a complete map of
where the per-packet path copies today, and a regression gate once it
stops copying.  This pass runs the whole-program hot-path engine of
:mod:`~repro.analysis.hotgraph` — seeded at the code-reviewed per-packet
entry points (``Router.process``/``process_batch``, the
gateway ecall crossings, data-channel crypto, netsim frame delivery) —
and reports:

* **HP701** — copy-producing bytes ops on payloads (slices, ``+``
  concat, ``bytes()`` round-trips, ``b"".join``).
* **HP702** — per-packet object/dict/list allocation hoistable to burst
  or session scope.
* **HP703** — string formatting / f-strings / logging per packet.
* **HP704** — buffers handed by value across the declared netsim → VPN
  → Click layer boundaries (``hotgraph.HOT_BOUNDARIES``).
* **HP705** — a ``memoryview`` escaping past its backing buffer's reuse
  (the rule that keeps the zero-copy refactor honest afterwards).

Required copies are *waived*: inline
``# endbox-lint: hotpath(HP701)`` on the offending line (``HP7xx``
covers the family), or an entry in ``hotgraph.HOT_ALLOWANCES`` carrying
the reviewed justification (sealing, MAC input, wire emission).

HP701–HP704 report as warnings (performance debt, tracked in the
baseline until ROADMAP item 4 burns it down); HP705 is an error — a
view outliving its buffer is a correctness hazard, not a slow path.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.analysis.engine import Checker, ModuleInfo
from repro.analysis.findings import Finding, Severity
from repro.analysis.hotgraph import (
    HP_RULES,
    HotPathAnalysis,
    RawHotFinding,
    hot_allowance_for,
    hotpath_rules,
)


class HotPathChecker(Checker):
    name = "hotpath"
    rules = dict(HP_RULES)
    scope = "program"

    def __init__(self) -> None:
        self._modules: List[ModuleInfo] = []
        #: (finding, justification) pairs removed by a waiver, kept for
        #: reporting/tests (an allowance that matches nothing is stale)
        self.waived: List[Tuple[Finding, str]] = []

    def begin(self, modules: Sequence[ModuleInfo]) -> None:
        """Receive the whole module set before per-module checks run."""
        self._modules = list(modules)

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()  # hot reachability is cross-module; see finish()

    def finish(self) -> Iterable[Finding]:
        if not self._modules:
            return []
        raw = HotPathAnalysis(self._modules).run()
        findings: List[Finding] = []
        for hit in raw:
            finding = self._to_finding(hit)
            if self._waived(hit, finding):
                continue
            findings.append(finding)
        self._modules = []
        return findings

    # ------------------------------------------------------------------
    def _to_finding(self, hit: RawHotFinding) -> Finding:
        severity = Severity.ERROR if hit.rule == "HP705" else Severity.WARNING
        return self.finding(
            hit.rule,
            severity,
            hit.module,
            hit.node,
            hit.message,
            symbol=hit.symbol,
        )

    def _waived(self, hit: RawHotFinding, finding: Finding) -> bool:
        """Inline ``hotpath(...)`` comment or HOT_ALLOWANCES match."""
        rules = hotpath_rules(hit.module.line_text(finding.line))
        if rules is not None and (finding.rule in rules or "HP7xx" in rules):
            self.waived.append((finding, "inline hotpath annotation"))
            return True
        entry = hot_allowance_for(finding)
        if entry is not None:
            self.waived.append((finding, entry.note))
            return True
        return False

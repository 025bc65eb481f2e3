"""Secret-flow lint (TF5xx): the paper's secrecy invariant, machine-checked.

EndBox argues (§V-A) that key material and middlebox-decrypted plaintext
never leave the attested enclave.  This pass runs the interprocedural
dataflow of :mod:`~repro.analysis.dataflow` over the whole tree and
reports flows from a registered secret source
(:mod:`~repro.analysis.secrets`) into an untrusted sink:

* **TF501** — ocall arguments (data handed to the untrusted host).
* **TF502** — trace/log/print events (``netsim.trace``, loggers).
* **TF503** — exception messages (secrets interpolated at ``raise``).
* **TF504** — packet payload construction outside the enclave.
* **TF505** — JSON/benchmark artifact writers.
* **TF506** — externally-injected export hooks.

Flows through a declared sanitizer (protect/encrypt/seal/MAC/hash) are
clean by construction.  Intentional exposure is *declassified*: inline
``# endbox-lint: declassify(TF506)`` on the sink line (``TF5xx`` covers
the family), or an entry in ``secrets.DECLASSIFICATIONS`` carrying the
justification — the keylog path of §III-D lives there.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.analysis.callgraph import CallGraph, to_findings
from repro.analysis.dataflow import TaintAnalysis
from repro.analysis.engine import Checker
from repro.analysis.findings import Finding
from repro.analysis.secrets import DECLASSIFICATIONS, TF_RULES


class TaintChecker(Checker):
    name = "taint"
    rules = dict(TF_RULES)

    def __init__(self) -> None:
        #: (finding, justification) pairs removed by declassification,
        #: kept for reporting/tests
        self.declassified: List[Tuple[Finding, str]] = []

    def check_program(self, graph: CallGraph) -> Iterable[Finding]:
        """TF5xx findings left after inline and registry declassification."""
        hits = TaintAnalysis(graph).run()
        return to_findings(hits, "declassify", DECLASSIFICATIONS, self.declassified)

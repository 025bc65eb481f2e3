"""The concrete endbox-lint passes.

* ``boundary`` — enclave-boundary isolation (EB1xx)
* ``determinism`` — simulation determinism (DET4xx)
* ``interface`` — gateway/Iago interface audit (IF201)
* ``clickgraph`` — Click configuration graph validation (CG3xx)
* ``taint`` — interprocedural secret-flow analysis (TF5xx)
* ``ownership`` — whole-program state ownership across the simulators
  of one process (SS6xx)
  and memoryview lifetimes (HP705)

``taint`` and ``ownership`` read the one
:class:`~repro.analysis.callgraph.CallGraph` each run builds.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.checkers.boundary import BoundaryChecker
from repro.analysis.checkers.clickgraph import ClickGraphChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.interface import InterfaceChecker
from repro.analysis.checkers.ownership import OwnershipChecker
from repro.analysis.checkers.taint import TaintChecker
from repro.analysis.engine import Checker

__all__ = [
    "BoundaryChecker",
    "ClickGraphChecker",
    "DeterminismChecker",
    "InterfaceChecker",
    "OwnershipChecker",
    "TaintChecker",
    "all_rules",
    "default_checkers",
]


def default_checkers() -> List[Checker]:
    """One fresh instance of every pass (checkers may carry run state)."""
    return [
        BoundaryChecker(),
        DeterminismChecker(),
        InterfaceChecker(),
        ClickGraphChecker(),
        TaintChecker(),
        OwnershipChecker(),
    ]


def all_rules() -> Dict[str, str]:
    """rule id -> description, across every pass (for ``--list-rules``)."""
    rules: Dict[str, str] = {"GEN001": "file does not parse"}
    for checker in default_checkers():
        rules.update(checker.rules)
    return dict(sorted(rules.items()))

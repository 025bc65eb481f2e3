"""Gateway interface audit (IF201).

§IV-B hardens all 90 ecalls/ocalls with sanity checks against Iago-style
attacks.  That property erodes silently — one forgotten validator — so
this pass audits every ocall registration:

* **IF201** — ``register_ocall`` without a return-value ``validator``:
  a lying untrusted handler would reach trusted code unchecked.  Attack
  simulations that *deliberately* register bait handlers opt out with
  ``unvalidated_ok=True``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.engine import Checker, ModuleInfo
from repro.analysis.findings import Finding, Severity


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_true(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


class InterfaceChecker(Checker):
    name = "interface"
    rules = {
        "IF201": "ocall registered without a return-value validator (Iago defence missing)",
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Interface-audit findings for every ocall registration."""
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "register_ocall":
                findings.extend(self._audit_register(module, node))
        return findings

    # ------------------------------------------------------------------
    def _audit_register(self, module: ModuleInfo, node: ast.Call) -> List[Finding]:
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        if "unvalidated_ok" in keywords and _is_true(keywords["unvalidated_ok"]):
            return []
        has_validator = len(node.args) >= 3 and not _is_none(node.args[2])
        if "validator" in keywords and not _is_none(keywords["validator"]):
            has_validator = True
        if has_validator:
            return []
        return [
            self.finding(
                "IF201",
                Severity.ERROR,
                module,
                node,
                "register_ocall without a validator: hostile ocall return values "
                "would reach trusted code unchecked (pass validator=..., or "
                "unvalidated_ok=True in attack simulations)",
            )
        ]

"""Enclave-boundary isolation (EB1xx).

The whole security argument of §V-A assumes untrusted code can reach
enclave state only through the ecall/ocall gateway.  Nothing in Python
enforces that, so this pass does:

* **EB101** — an untrusted module imports an underscore-private name
  from a trusted module (``from repro.sgx.enclave import _pages``).
* **EB102** — an untrusted module touches a ``_private`` attribute on
  something it imported from a trusted module
  (``EnclaveGateway._ecall_validators``, ``enclave_app._validate_blob``).
* **EB103** — an untrusted module touches an enclave-private attribute
  by name on *any* object (``endbox.enclave.trusted_state`` — reaching
  straight into enclave memory instead of issuing an ecall).

"Untrusted" here means every domain except ``TRUSTED`` in the
:mod:`~repro.analysis.trustmap`: shared substrate and infrastructure
code must also stay on their side of the boundary.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.engine import Checker, ImportMap, ModuleInfo
from repro.analysis.findings import Finding, Severity
from repro.analysis.trustmap import TrustDomain, trust_domain

#: attributes that constitute enclave-private state wherever they appear;
#: touching them outside the enclave bypasses the gateway entirely.
SENSITIVE_ATTRS = frozenset(
    {
        "trusted_state",  # Enclave.trusted_state: in-enclave memory
        "_enter",  # Enclave._enter/_leave: the raw EENTER/EEXIT path
        "_leave",
        "_ocalls",  # EnclaveGateway internals: handler/validator tables
        "_ecall_validators",
        "_ocall_validators",
    }
)


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not attr.startswith("__")


class BoundaryChecker(Checker):
    name = "boundary"
    rules = {
        "EB101": "untrusted module imports a private name from a trusted module",
        "EB102": "untrusted module accesses a _private attribute of a trusted module's object",
        "EB103": "untrusted module touches enclave-private state (use EnclaveGateway.ecall/ocall)",
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Boundary findings for one (non-trusted) module."""
        if module.domain is TrustDomain.TRUSTED:
            return []
        findings: List[Finding] = []
        findings.extend(self._private_imports(module))
        visitor = _AttrVisitor(self, module, module.imports, findings)
        visitor.visit(module.tree)
        return findings

    # ------------------------------------------------------------------
    def _private_imports(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            origin = node.module or ""
            if trust_domain(origin) is not TrustDomain.TRUSTED:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    findings.append(
                        self.finding(
                            "EB101",
                            Severity.ERROR,
                            module,
                            node,
                            f"{module.module} ({module.domain.value}) imports private "
                            f"{alias.name!r} from trusted module {origin!r}; use the "
                            "public gateway surface instead",
                        )
                    )
        return findings


class _AttrVisitor(ast.NodeVisitor):
    """Flags private attribute access, tracking the enclosing symbol."""

    def __init__(
        self,
        checker: BoundaryChecker,
        module: ModuleInfo,
        imports: ImportMap,
        findings: List[Finding],
    ) -> None:
        self.checker = checker
        self.module = module
        self.imports = imports
        self.findings = findings
        self.scope: List[str] = []

    # scope tracking ----------------------------------------------------
    def _visit_scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_ClassDef = _visit_scoped

    def _symbol(self) -> Optional[str]:
        return ".".join(self.scope) if self.scope else None

    # the actual rule ---------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        if attr in SENSITIVE_ATTRS:
            self.findings.append(
                self.checker.finding(
                    "EB103",
                    Severity.ERROR,
                    self.module,
                    node,
                    f"{self.module.module} ({self.module.domain.value}) touches "
                    f"enclave-private attribute {attr!r}; untrusted code must go "
                    "through EnclaveGateway.ecall/ocall",
                    symbol=self._symbol(),
                )
            )
        elif _is_private(attr):
            origin = self.imports.resolve(node.value)
            if origin is not None and trust_domain(origin) is TrustDomain.TRUSTED:
                self.findings.append(
                    self.checker.finding(
                        "EB102",
                        Severity.ERROR,
                        self.module,
                        node,
                        f"{self.module.module} ({self.module.domain.value}) accesses "
                        f"private attribute {attr!r} of trusted {origin!r}; use the "
                        "gateway interface",
                        symbol=self._symbol(),
                    )
                )
        self.generic_visit(node)

"""Click configuration lint (CG3xx).

Evaluates every configuration shipped in ``repro.click.configs`` (the
§V-B use cases plus the Table II minimal config) and runs the static
graph validator from :mod:`repro.click.graphcheck` over each: port
arity against ``PORT_COUNT``, single-wiring of push outputs,
reachability from the entry element, cycles, unknown element classes.

The same validator also runs online, inside
:class:`~repro.click.hotswap.HotSwapManager`, so a configuration this
pass would reject can never be committed by a versioned
reconfiguration either.

Rules: **CG301** unknown element class · **CG302/CG303** dangling
output/input port · **CG304** output wired twice · **CG305** mandatory
output unconnected (silent drop) · **CG306** unreachable element ·
**CG307** cycle · **CG308** multiple entry elements · **CG309** no
entry element · **CG310** configuration does not parse · **CG300** a
config source could not be evaluated at all.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from typing import Dict, Iterable, List, Tuple

from repro.analysis.engine import Checker, ModuleInfo
from repro.analysis.findings import Finding, Severity

#: modules whose configurations this pass evaluates and validates.
CONFIG_MODULES = ("repro.click.configs",)


class ClickGraphChecker(Checker):
    name = "clickgraph"
    rules = {
        "CG300": "configuration source could not be evaluated",
        "CG301": "unknown element class",
        "CG302": "connection from a nonexistent output port",
        "CG303": "connection to a nonexistent input port",
        "CG304": "output port connected more than once",
        "CG305": "mandatory output port not connected (packets silently dropped)",
        "CG306": "element unreachable from the entry point",
        "CG307": "configuration graph has a cycle",
        "CG308": "multiple entry (FromDevice-like) elements",
        "CG309": "no entry element",
        "CG310": "configuration does not parse",
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Graph findings for a configuration module (no-op elsewhere)."""
        if module.module not in CONFIG_MODULES:
            return []
        findings: List[Finding] = []
        lines = _definition_lines(module.tree)
        for name, text, line in self._configurations(module, lines, findings):
            findings.extend(self._validate(module, name, text, line))
        return findings

    # ------------------------------------------------------------------
    def _configurations(
        self, module: ModuleInfo, lines: Dict[str, int], findings: List[Finding]
    ) -> List[Tuple[str, str, int]]:
        """Every (name, config text, anchor line) the module provides."""
        try:
            loaded = importlib.import_module(module.module)
        except Exception as exc:  # pragma: no cover - import breakage
            findings.append(
                Finding(
                    rule="CG300",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=1,
                    message=f"cannot import {module.module}: {exc!r}",
                )
            )
            return []
        configurations: List[Tuple[str, str, int]] = []
        for name, value in sorted(vars(loaded).items()):
            if name.startswith("_"):
                continue
            anchor = lines.get(name, 1)
            if isinstance(value, str) and "->" in value:
                configurations.append((name, value, anchor))
            elif inspect.isfunction(value) and value.__module__ == module.module:
                if any(
                    parameter.default is inspect.Parameter.empty
                    and parameter.kind
                    not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
                    for parameter in inspect.signature(value).parameters.values()
                ):
                    continue  # needs arguments we cannot invent
                try:
                    produced = value()
                except Exception as exc:
                    findings.append(
                        Finding(
                            rule="CG300",
                            severity=Severity.ERROR,
                            path=module.path,
                            line=anchor,
                            message=f"{name}() raised while producing a configuration: {exc!r}",
                            symbol=name,
                        )
                    )
                    continue
                if isinstance(produced, str) and "->" in produced:
                    configurations.append((name, produced, anchor))
        return configurations

    def _validate(self, module: ModuleInfo, name: str, text: str, line: int) -> List[Finding]:
        # imported here so merely constructing the checker never pulls in
        # the click package (keeps `--list-rules` and friends lightweight)
        from repro.click.config import ClickSyntaxError, parse_config
        from repro.click.graphcheck import validate_parsed

        try:
            parsed = parse_config(text)
        except ClickSyntaxError as exc:
            return [
                Finding(
                    rule="CG310",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=line,
                    message=f"configuration {name!r} does not parse: {exc}",
                    symbol=name,
                )
            ]
        return [
            Finding(
                rule=issue.rule,
                severity=Severity.ERROR if issue.fatal else Severity.WARNING,
                path=module.path,
                line=line,
                message=f"configuration {name!r}: {issue.message}",
                symbol=name,
            )
            for issue in validate_parsed(parsed)
        ]


def _definition_lines(tree: ast.Module) -> Dict[str, int]:
    """Top-level name -> line of its definition/assignment."""
    lines: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    lines[target.id] = node.lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            lines[node.target.id] = node.lineno
    return lines

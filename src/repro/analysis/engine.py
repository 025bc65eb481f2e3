"""Checker framework: module collection, AST plumbing, suppression.

An :class:`Analyzer` turns a set of paths into :class:`ModuleInfo`
objects (source + AST + import map + trust domain), feeds each one to
every registered :class:`Checker`, builds one
:class:`~repro.analysis.callgraph.CallGraph` for the whole-program
passes, then filters the findings through inline suppressions
(``# endbox-lint: ignore[RULE]`` on the offending line) and the
committed :class:`~repro.analysis.baseline.Baseline`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import CallGraph
from repro.analysis.findings import Finding, Severity, inline_rules, names_rule
from repro.analysis.trustmap import TrustDomain, trust_domain

#: directory names never descended into by :meth:`Analyzer.collect_files`
#: (bytecode, VCS metadata, build products, virtualenvs, caches).
PRUNED_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".hg",
        ".svn",
        ".tox",
        ".venv",
        "venv",
        "node_modules",
        "build",
        "dist",
        ".pytest_cache",
        ".mypy_cache",
    }
)


@dataclass
class ModuleInfo:
    """One Python source file, parsed and classified."""

    path: str  # repo-relative where possible (what reports show)
    module: str  # dotted name, e.g. "repro.sgx.gateway"
    source: str
    tree: ast.Module
    domain: TrustDomain
    lines: List[str] = field(default_factory=list)
    #: where each module-level name came from, shared by every pass
    imports: "ImportMap" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        self.imports = ImportMap(self.tree)

    def line_text(self, lineno: int) -> str:
        """Source text of 1-indexed line ``lineno`` (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path.

    Paths containing a ``repro`` package directory map into it
    (``src/repro/sgx/gateway.py`` -> ``repro.sgx.gateway``); anything
    else is named after its stem, which the trust map classifies as
    untrusted by default.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[index:]) or "repro"
    return parts[-1] if parts else "<unknown>"


def display_path(path: Path) -> str:
    """Repo-relative, ``/``-separated path for reports and baselines."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


class ImportMap:
    """Where each module-level name came from (for origin resolution)."""

    def __init__(self, tree: ast.Module) -> None:
        self.bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.bindings[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative imports are not used in repro
                    continue
                origin_module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = (
                        f"{origin_module}.{alias.name}" if origin_module else alias.name
                    )

    def origin(self, name: str) -> Optional[str]:
        """Dotted origin of a local name, or None if not import-bound."""
        return self.bindings.get(name)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain (``time.time`` ...)."""
        attrs: List[str] = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.bindings.get(node.id)
        if base is None:
            return None
        return ".".join([base] + attrs[::-1])


class Checker:
    """Base class for one analysis pass.

    Subclasses set ``name`` and ``rules`` (rule id -> one-line
    description) and implement :meth:`check_module` (one file at a
    time) or :meth:`check_program` (the whole program's call graph).
    """

    name = "base"
    rules: Dict[str, str] = {}

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Findings for one module (override in per-file passes)."""
        return ()

    def check_program(self, graph: CallGraph) -> Iterable[Finding]:
        """Findings over the whole program (override in cross-module passes)."""
        return ()

    # convenience -------------------------------------------------------
    def finding(
        self,
        rule: str,
        severity: Severity,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        symbol: Optional[str] = None,
    ) -> Finding:
        """Build a Finding anchored at ``node`` inside ``module``."""
        return Finding(
            rule=rule,
            severity=severity,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


@dataclass
class AnalysisReport:
    """Everything one run produced."""

    findings: List[Finding]
    baselined: List[Finding]
    inline_suppressed: int
    modules_scanned: int
    checkers: List[str]
    unused_baseline_entries: List[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        """JSON-ready representation (the --format=json payload)."""
        return {
            "summary": {
                "modules_scanned": self.modules_scanned,
                "checkers": self.checkers,
                "findings": len(self.findings),
                "baselined": len(self.baselined),
                "inline_suppressed": self.inline_suppressed,
                "clean": self.clean,
            },
            "findings": [finding.to_dict() for finding in self.findings],
            "baselined": [finding.to_dict() for finding in self.baselined],
            "unused_baseline_entries": self.unused_baseline_entries,
        }


def _inline_suppressed(module: ModuleInfo, finding: Finding) -> bool:
    tokens = inline_rules(module.line_text(finding.line), "ignore")
    return tokens is not None and names_rule(tokens, finding.rule)


class Analyzer:
    """Run a set of checkers over a set of modules."""

    def __init__(
        self,
        checkers: Optional[Sequence[Checker]] = None,
        baseline: Optional[Baseline] = None,
    ) -> None:
        if checkers is None:
            from repro.analysis.checkers import default_checkers

            checkers = default_checkers()
        self.checkers = list(checkers)
        self.baseline = baseline or Baseline()

    # ------------------------------------------------------------------
    # module collection
    # ------------------------------------------------------------------
    @staticmethod
    def collect_files(paths: Sequence) -> List[Path]:
        """Expand files/directories into a sorted list of .py files.

        Directories are walked explicitly so whole non-source trees
        (``__pycache__``, VCS metadata, build products, caches — see
        :data:`PRUNED_DIRS` — plus ``*.egg-info``) are pruned at the
        directory level instead of filtered file by file.
        """

        def walk(directory: Path) -> Iterable[Path]:
            children = sorted(directory.iterdir(), key=lambda p: p.name)
            for child in children:
                name = child.name
                if child.is_dir():
                    if name in PRUNED_DIRS or name.endswith(".egg-info"):
                        continue
                    yield from walk(child)
                elif child.suffix == ".py":
                    yield child

        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(walk(path))
            elif path.suffix == ".py":
                files.append(path)
        return files

    @staticmethod
    def load_module(path: Path, source: Optional[str] = None) -> ModuleInfo:
        """Read, parse and trust-classify one source file."""
        if source is None:
            source = path.read_text(encoding="utf-8")
        module = module_name_for(path)
        return ModuleInfo(
            path=display_path(path),
            module=module,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            domain=trust_domain(module),
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, paths: Sequence) -> AnalysisReport:
        """Scan paths, run every checker, and apply suppressions."""
        modules: List[ModuleInfo] = []
        findings: List[Finding] = []
        for path in self.collect_files(paths):
            try:
                modules.append(self.load_module(path))
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule="GEN001",
                        severity=Severity.ERROR,
                        path=display_path(path),
                        line=exc.lineno or 0,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
        findings.extend(self.run_modules(modules))
        return self._report(modules, findings)

    def run_modules(self, modules: Sequence[ModuleInfo]) -> List[Finding]:
        """Run checkers over pre-built modules (inline suppressions applied).

        The call graph is built once here and handed to every
        whole-program pass.
        """
        findings: List[Finding] = []
        graph = CallGraph(modules)
        for checker in self.checkers:
            for module in modules:
                findings.extend(checker.check_module(module))
            findings.extend(checker.check_program(graph))
        # inline suppressions need the module the finding points into
        by_path = {module.path: module for module in modules}
        kept = []
        self._inline_count = 0
        for finding in findings:
            module = by_path.get(finding.path)
            if module is not None and _inline_suppressed(module, finding):
                self._inline_count += 1
                continue
            kept.append(finding)
        return kept

    def _report(self, modules: Sequence[ModuleInfo], findings: List[Finding]) -> AnalysisReport:
        active: List[Finding] = []
        baselined: List[Finding] = []
        for finding in sorted(findings, key=Finding.sort_key):
            if self.baseline.suppresses(finding):
                baselined.append(finding)
            else:
                active.append(finding)
        return AnalysisReport(
            findings=active,
            baselined=baselined,
            inline_suppressed=getattr(self, "_inline_count", 0),
            modules_scanned=len(modules),
            checkers=[checker.name for checker in self.checkers],
            unused_baseline_entries=[
                entry.to_dict() for entry in self.baseline.unused_entries()
            ],
        )


# ----------------------------------------------------------------------
# convenience entry points (used by tests and the CLI)
# ----------------------------------------------------------------------
def analyze_paths(
    paths: Sequence,
    checkers: Optional[Sequence[Checker]] = None,
    baseline: Optional[Baseline] = None,
) -> AnalysisReport:
    """Run (by default) every checker over the given files/directories."""
    return Analyzer(checkers=checkers, baseline=baseline).run(paths)


def analyze_source(
    source: str,
    module: str = "snippet",
    checkers: Optional[Sequence[Checker]] = None,
    path: str = "<memory>",
) -> List[Finding]:
    """Run checkers over in-memory source (unit-test hook).

    The trust domain is derived from ``module`` exactly as for on-disk
    files, so tests can exercise domain-dependent rules by picking a
    dotted name (e.g. ``repro.attacks.evil``).
    """
    info = ModuleInfo(
        path=path,
        module=module,
        source=source,
        tree=ast.parse(source),
        domain=trust_domain(module),
    )
    analyzer = Analyzer(checkers=checkers)
    return analyzer.run_modules([info])

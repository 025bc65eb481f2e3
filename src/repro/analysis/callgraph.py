"""The whole-program call graph shared by the taint and ownership passes.

One :class:`CallGraph` is built per analysis run, from every collected
``repro`` module except the linter itself (which manipulates
descriptions of secrets and shared state, and would otherwise flag its
own machinery).  It holds the function table — every ``def`` with its
class context, plus each module body as a ``<module>`` pseudo-function
— keyed by dotted names and by bare names, and resolves calls and
function references against it.  The secret-flow engine
(:mod:`~repro.analysis.dataflow`) and the ownership engine
(:mod:`~repro.analysis.ownergraph`) both read this one object.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding, Severity, Waiver, first_match, inline_rules, names_rule

if TYPE_CHECKING:  # engine builds the graph, so it cannot be imported here
    from repro.analysis.engine import ModuleInfo

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: method names too ubiquitous to resolve by bare name (``cache.get(key)``
#: is a dict read, not ``HttpClient.get``), plus driver-level verbs whose
#: bare-name resolution would drag the whole tree into one call.
GENERIC_NAMES = frozenset(
    {
        "get", "pop", "popitem", "setdefault", "items", "keys", "values",
        "update", "append", "extend", "insert", "remove", "discard", "add",
        "clear", "copy", "index", "count", "sort", "reverse", "join",
        "split", "strip", "startswith", "endswith", "encode", "decode",
        "format", "hex", "run", "step", "close", "open", "read", "write",
        "next", "peek",
    }
)


@dataclass
class FunctionInfo:
    """One analyzable function (or a module body as a pseudo-function)."""

    module: ModuleInfo
    node: Union[_FuncNode, ast.Module]
    qualname: str  # "Class.method", "function", or "<module>"
    params: List[str]  # declared order, self/cls stripped for methods
    is_method: bool

    @property
    def dotted(self) -> str:
        if self.qualname == "<module>":
            return self.module.module
        return f"{self.module.module}.{self.qualname}"

    @property
    def bare(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class RawFinding:
    """A rule hit of a whole-program pass, before waiver filtering."""

    rule: str
    module: ModuleInfo
    node: ast.AST
    message: str
    symbol: Optional[str] = None


def unique(hits: Iterable[RawFinding]) -> List[RawFinding]:
    """``hits`` without repeats of the same rule and message at one spot
    (several candidate callees can produce the same report)."""
    seen: Set[Tuple[str, str, int, int, str]] = set()
    kept: List[RawFinding] = []
    for hit in hits:
        key = (
            hit.rule,
            hit.module.path,
            getattr(hit.node, "lineno", 0),
            getattr(hit.node, "col_offset", 0),
            hit.message,
        )
        if key not in seen:
            seen.add(key)
            kept.append(hit)
    return kept


def to_findings(
    hits: Iterable[RawFinding],
    verb: str,
    registry: Sequence[Waiver],
    waived: List[Tuple[Finding, str]],
) -> List[Finding]:
    """Error findings for the ``hits`` nothing waives.

    A hit is waived by an inline ``# endbox-lint: VERB(...)`` comment on
    its line or by an entry of ``registry``; waived findings go to
    ``waived`` with the reason, so a stale registry entry shows.
    """
    findings: List[Finding] = []
    for hit in hits:
        finding = Finding(
            rule=hit.rule,
            severity=Severity.ERROR,
            path=hit.module.path,
            line=getattr(hit.node, "lineno", 0),
            col=getattr(hit.node, "col_offset", 0),
            message=hit.message,
            symbol=hit.symbol,
        )
        tokens = inline_rules(hit.module.line_text(finding.line), verb)
        if tokens is not None and names_rule(tokens, finding.rule):
            waived.append((finding, f"inline {verb} annotation"))
            continue
        entry = first_match(registry, finding)
        if entry is None:
            findings.append(finding)
        else:
            waived.append((finding, entry.note))
    return findings


def _function_params(node: _FuncNode, is_method: bool) -> List[str]:
    names = [a.arg for a in node.args.posonlyargs + node.args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in node.args.kwonlyargs)
    return names


def collect_functions(module: ModuleInfo) -> List[FunctionInfo]:
    """Every def (with class context) plus the module body itself."""
    functions: List[FunctionInfo] = [
        FunctionInfo(module=module, node=module.tree, qualname="<module>", params=[], is_method=False)
    ]

    def visit(body: Sequence[ast.stmt], stack: List[str], in_class: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join(stack + [stmt.name])
                functions.append(
                    FunctionInfo(
                        module=module,
                        node=stmt,
                        qualname=qual,
                        params=_function_params(stmt, is_method=in_class),
                        is_method=in_class,
                    )
                )
                visit(stmt.body, stack + [stmt.name], in_class=False)
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, stack + [stmt.name], in_class=True)

    visit(module.tree.body, [], in_class=False)
    return functions


class CallGraph:
    """Function table plus call/reference resolution over the program."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = [
            m
            for m in modules
            if (m.module == "repro" or m.module.startswith("repro."))
            and not m.module.startswith("repro.analysis")
        ]
        self.functions: List[FunctionInfo] = []
        for module in self.modules:
            self.functions.extend(collect_functions(module))
        #: dotted name -> function (classes map to their ``__init__`` so
        #: constructor calls resolve)
        self.by_dotted: Dict[str, FunctionInfo] = {}
        #: bare name -> every function or method carrying it
        self.by_bare: Dict[str, List[FunctionInfo]] = {}
        for fn in self.functions:
            if fn.qualname == "<module>":
                continue
            self.by_dotted[fn.dotted] = fn
            self.by_bare.setdefault(fn.bare, []).append(fn)
            if fn.is_method and fn.bare == "__init__":
                self.by_dotted[fn.dotted[: -len(".__init__")]] = fn
        self._register_method_aliases()

    def _register_method_aliases(self) -> None:
        """Class-body aliases (``encrypt = process``) resolve to the method."""
        for module in self.modules:
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                local_methods = {
                    fn.bare: fn
                    for fn in self.functions
                    if fn.module is module and fn.is_method
                    and fn.qualname.startswith(node.name + ".")
                }
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.Assign)
                        and isinstance(stmt.value, ast.Name)
                        and stmt.value.id in local_methods
                    ):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                candidates = self.by_bare.setdefault(target.id, [])
                                if local_methods[stmt.value.id] not in candidates:
                                    candidates.append(local_methods[stmt.value.id])

    # ------------------------------------------------------------------
    def resolve_call(self, module: ModuleInfo, node: ast.Call) -> List[FunctionInfo]:
        """Possible targets of a call, dotted name first, else bare name."""
        func = node.func
        if isinstance(func, ast.Attribute):
            dotted = module.imports.resolve(func)
            if dotted is not None and dotted in self.by_dotted:
                return [self.by_dotted[dotted]]
            # self.method() / cls.method(): prefer same-module classes
            if isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
                local = [
                    fn
                    for fn in self.by_bare.get(func.attr, [])
                    if fn.module is module and fn.is_method
                ]
                if local:
                    return local
            if func.attr not in GENERIC_NAMES:
                return [fn for fn in self.by_bare.get(func.attr, []) if fn.is_method]
            return []
        if isinstance(func, ast.Name):
            local = f"{module.module}.{func.id}"
            if local in self.by_dotted:
                return [self.by_dotted[local]]
            dotted = module.imports.origin(func.id)
            if dotted is not None and dotted in self.by_dotted:
                return [self.by_dotted[dotted]]
        return []

    def resolve_reference(self, module: ModuleInfo, node: ast.expr) -> List[FunctionInfo]:
        """Function references (not calls): names, attributes, lambdas."""
        if isinstance(node, ast.Lambda):
            out: List[FunctionInfo] = []
            for sub in ast.walk(node.body):
                if isinstance(sub, ast.Call):
                    out.extend(self.resolve_call(module, sub))
            return out
        if isinstance(node, ast.Call):
            # ``sim.process(self._worker())``: the generator factory is
            # the function that will run under the simulator
            return self.resolve_call(module, node)
        if isinstance(node, ast.Attribute):
            dotted = module.imports.resolve(node)
            if dotted is not None and dotted in self.by_dotted:
                return [self.by_dotted[dotted]]
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                return [
                    fn
                    for fn in self.by_bare.get(node.attr, [])
                    if fn.module is module and fn.is_method
                ]
            if node.attr not in GENERIC_NAMES:
                return [fn for fn in self.by_bare.get(node.attr, []) if fn.is_method]
            return []
        if isinstance(node, ast.Name):
            local = f"{module.module}.{node.id}"
            if local in self.by_dotted:
                return [self.by_dotted[local]]
            dotted = module.imports.origin(node.id)
            if dotted is not None and dotted in self.by_dotted:
                return [self.by_dotted[dotted]]
        return []

"""Interprocedural secret-flow dataflow (the TF5xx engine).

The :class:`TaintAnalysis` walks every function of the shared
:class:`~repro.analysis.callgraph.CallGraph` and iterates per-function
**summaries** to a fixpoint:

* ``returns_secret`` — the function's return value carries key material;
* ``return_params`` — parameters whose taint flows to the return value;
* ``param_sinks`` — parameters that reach an untrusted sink inside the
  function (so callers passing secrets get flagged at the call site).

Taint labels are ``("secret", description)`` for registry sources and
``("param", name)`` for summary computation.  Propagation covers
assignments (strong updates on names), attribute stores (which *learn*
new secret attribute names), container literals, f-strings, returns and
call arguments.  Sanitizers (:mod:`~repro.analysis.secrets`) cut flows;
registry sources override computed summaries, so HKDF stays secret even
though it is built from the HMAC sanitizer.

A final reporting pass re-walks every function and emits
:class:`RawFinding` objects at sink sites; the checker
(:mod:`~repro.analysis.checkers.taint`) turns them into findings and
applies declassification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, RawFinding, unique
from repro.analysis.secrets import (
    ARTIFACT_FUNCTIONS,
    ARTIFACT_METHODS,
    EXPORT_HOOKS,
    OCALL_METHODS,
    PACKET_CONSTRUCTORS,
    PACKET_MODULE_PREFIXES,
    PUBLIC_ATTRIBUTES,
    SANITIZER_FUNCTIONS,
    SANITIZER_METHODS,
    SECRET_ATTRIBUTES,
    SECRET_FUNCTIONS,
    SECRET_GLOBALS,
    SECRET_METHODS,
    SECRET_PARAMETERS,
    SECRET_STATE_KEYS,
    TRACE_CONSTRUCTORS,
    TRACE_METHODS,
    TRACE_PREFIXES,
)
from repro.analysis.trustmap import TrustDomain

#: a taint label: ("secret", human description) or ("param", param name)
Label = Tuple[str, str]
Taint = Set[Label]


def _secrets(taint: Taint) -> List[str]:
    """Descriptions of the secret labels in a taint set, stable order."""
    return sorted(desc for kind, desc in taint if kind == "secret")


def _params(taint: Taint) -> List[str]:
    return sorted(name for kind, name in taint if kind == "param")


@dataclass
class Summary:
    """What a function does with taint, as seen from call sites."""

    returns_secret: Set[str] = field(default_factory=set)
    return_params: Set[str] = field(default_factory=set)
    param_sinks: Dict[str, Set[Tuple[str, str]]] = field(default_factory=dict)
    #: element-wise taint for ``return a, b, c`` — lets callers unpack
    #: ``reply, secrets = f()`` without smearing the secret onto reply
    tuple_returns: Optional[List[Tuple[FrozenSet[str], FrozenSet[str]]]] = None
    tuple_conflict: bool = False

    def sink(self, param: str, rule: str, detail: str) -> None:
        """Record that ``param`` reaches a ``rule`` sink inside the body."""
        self.param_sinks.setdefault(param, set()).add((rule, detail))


class TaintAnalysis:
    """Cross-module fixpoint over function summaries, then reporting."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.functions = graph.functions
        self.summaries: Dict[int, Summary] = {}
        #: attribute names learned secret from ``obj.attr = <secret>``
        self.learned_attrs: Dict[str, str] = {}
        #: dotted module globals learned secret from module-level stores
        self.learned_globals: Dict[str, str] = {}
        self._changed = False

    # ------------------------------------------------------------------
    def run(self) -> List[RawFinding]:
        """Fixpoint the summaries, then report sink hits.

        Each round re-walks every function against the current callee
        summaries, so a call chain defined callers-first moves a summary
        one hop per round: convergence takes at most one round per
        function plus a last round that changes nothing.  A run that
        needs more fails rather than reporting from partial summaries.
        """
        limit = len(self.functions) + 1
        for _ in range(limit):
            self._changed = False
            for fn in self.functions:
                flow = _Flow(self, fn, report=False)
                flow.run()
                old = self.summaries.get(id(fn))
                if old is None or old != flow.summary:
                    self.summaries[id(fn)] = flow.summary
                    self._changed = True
            if not self._changed:
                break
        else:
            raise RuntimeError(f"taint summaries did not converge within {limit} rounds")
        hits: List[RawFinding] = []
        for fn in self.functions:
            flow = _Flow(self, fn, report=True)
            flow.run()
            hits.extend(flow.findings)
        return unique(hits)

    # ------------------------------------------------------------------
    # learning (monotone: only ever adds sources)
    # ------------------------------------------------------------------
    def learn_attr(self, attr: str, desc: str) -> None:
        """Mark ``attr`` secret after seeing ``obj.attr = <secret>``."""
        if attr in PUBLIC_ATTRIBUTES or attr in SECRET_ATTRIBUTES:
            return
        if attr not in self.learned_attrs:
            self.learned_attrs[attr] = desc
            self._changed = True

    def learn_global(self, dotted: str, desc: str) -> None:
        """Mark a dotted module global secret after a module-level store."""
        if dotted in SECRET_GLOBALS:
            return
        if dotted not in self.learned_globals:
            self.learned_globals[dotted] = desc
            self._changed = True

    # ------------------------------------------------------------------
    def summary_of(self, fn: FunctionInfo) -> Summary:
        """Current summary of ``fn`` (empty before its first evaluation)."""
        return self.summaries.get(id(fn)) or Summary()


class _Flow:
    """One walk of one function body: env, summary, sink findings."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo, report: bool) -> None:
        self.analysis = analysis
        self.fn = fn
        self.module = fn.module
        self.imports = fn.module.imports
        self.report = report
        self.summary = Summary()
        self.findings: List[RawFinding] = []
        #: element-wise taints of the most recent call returning a tuple
        self._last_tuple: Optional[List[Taint]] = None
        self.env: Dict[str, Taint] = {}
        for param in fn.params:
            taint: Taint = {("param", param)}
            if fn.module.domain is TrustDomain.TRUSTED and param in SECRET_PARAMETERS:
                taint.add(("secret", f"'{param}' parameter of {fn.qualname}"))
            self.env[param] = taint

    # ------------------------------------------------------------------
    def run(self) -> None:
        body = self.fn.node.body
        self.exec_block(body)
        if self.fn.qualname == "<module>":
            # module-level names holding secrets become global sources
            for name, taint in self.env.items():
                for desc in _secrets(taint):
                    self.analysis.learn_global(f"{self.module.module}.{name}", desc)
                    break

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # analyzed as its own FunctionInfo
        if isinstance(stmt, ast.ClassDef):
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Assign):
            elements: Optional[List[Taint]] = None
            if isinstance(stmt.value, ast.Tuple) and not any(
                isinstance(e, ast.Starred) for e in stmt.value.elts
            ):
                elements = [self.eval(e) for e in stmt.value.elts]
                taint = set().union(*elements) if elements else set()
            else:
                taint = self.eval(stmt.value)
                if isinstance(stmt.value, ast.Call):
                    elements = self._last_tuple
            for target in stmt.targets:
                if (
                    elements is not None
                    and isinstance(target, (ast.Tuple, ast.List))
                    and len(target.elts) == len(elements)
                    and not any(isinstance(e, ast.Starred) for e in target.elts)
                ):
                    for elt, elt_taint in zip(target.elts, elements):
                        self.bind(elt, elt_taint)
                else:
                    self.bind(target, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = set(self.env.get(stmt.target.id, set())) | taint
                self.env[stmt.target.id] = merged
            else:
                self.bind(stmt.target, taint)
        elif isinstance(stmt, ast.Return):
            if isinstance(stmt.value, ast.Tuple) and not any(
                isinstance(e, ast.Starred) for e in stmt.value.elts
            ):
                element_taints = [self.eval(e) for e in stmt.value.elts]
                self.record_tuple_return(element_taints)
                for taint in element_taints:
                    self.record_return(taint)
            elif stmt.value is not None:
                self.record_return(self.eval(stmt.value))
        elif isinstance(stmt, ast.Raise):
            self.exec_raise(stmt)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self.eval(stmt.iter)
            self.bind(stmt.target, taint)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, taint)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = set()
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
            if stmt.msg is not None:
                self.eval(stmt.msg)
        # Import/Pass/Break/Continue/Delete/Global/Nonlocal: no taint flow

    def record_return(self, taint: Taint) -> None:
        for desc in _secrets(taint):
            self.summary.returns_secret.add(desc)
        for name in _params(taint):
            self.summary.return_params.add(name)

    def record_tuple_return(self, element_taints: List[Taint]) -> None:
        """Merge an element-wise tuple return into the summary."""
        elements = [
            (frozenset(_secrets(t)), frozenset(_params(t))) for t in element_taints
        ]
        summary = self.summary
        if summary.tuple_conflict:
            return
        if summary.tuple_returns is None:
            summary.tuple_returns = elements
        elif len(summary.tuple_returns) == len(elements):
            summary.tuple_returns = [
                (old[0] | new[0], old[1] | new[1])
                for old, new in zip(summary.tuple_returns, elements)
            ]
        else:  # differently-shaped returns: give up on element precision
            summary.tuple_returns = None
            summary.tuple_conflict = True

    def exec_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            return
        # evaluate the constructor's arguments directly so a clean
        # summary for SomeError.__init__ cannot swallow the message taint
        if isinstance(stmt.exc, ast.Call):
            taint: Taint = set()
            for arg in stmt.exc.args:
                taint |= self.eval(arg.value if isinstance(arg, ast.Starred) else arg)
            for kw in stmt.exc.keywords:
                taint |= self.eval(kw.value)
        else:
            taint = self.eval(stmt.exc)
        self.hit_sink("TF503", "an exception message", stmt, taint)

    # ------------------------------------------------------------------
    # binding / learning
    # ------------------------------------------------------------------
    def bind(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(taint)  # strong update
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, taint)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, taint)
        elif isinstance(target, ast.Attribute):
            for desc in _secrets(taint):
                self.analysis.learn_attr(target.attr, desc)
                break
        elif isinstance(target, ast.Subscript):
            base = target.value
            self.eval(target.slice)
            if isinstance(base, ast.Name):
                if base.id in self.env:
                    self.env[base.id] = set(self.env[base.id]) | taint
                else:
                    for desc in _secrets(taint):
                        if base.id == base.id.upper():  # module-constant store
                            self.analysis.learn_global(f"{self.module.module}.{base.id}", desc)
                        break

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            return self.eval_name(node)
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand)
            return set() if isinstance(node.op, ast.Not) else inner
        if isinstance(node, ast.BoolOp):
            taint: Taint = set()
            for value in node.values:
                taint |= self.eval(value)
            return taint
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comparator in node.comparators:
                self.eval(comparator)
            return set()  # booleans reveal at most one bit
        if isinstance(node, ast.JoinedStr):
            taint = set()
            for value in node.values:
                taint |= self.eval(value)
            return taint
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            taint = set()
            for elt in node.elts:
                taint |= self.eval(elt.value if isinstance(elt, ast.Starred) else elt)
            return taint
        if isinstance(node, ast.Dict):
            taint = set()
            for key in node.keys:
                if key is not None:
                    taint |= self.eval(key)
            for value in node.values:
                taint |= self.eval(value)
            return taint
        if isinstance(node, ast.Subscript):
            taint = self.eval(node.value)
            self.eval(node.slice)
            if isinstance(node.slice, ast.Constant) and node.slice.value in SECRET_STATE_KEYS:
                taint = taint | {("secret", SECRET_STATE_KEYS[node.slice.value])}
            return taint
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self.bind(gen.target, self.eval(gen.iter))
                for cond in gen.ifs:
                    self.eval(cond)
            return self.eval(node.elt)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self.bind(gen.target, self.eval(gen.iter))
                for cond in gen.ifs:
                    self.eval(cond)
            return self.eval(node.key) | self.eval(node.value)
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            self.bind(node.target, taint)
            return taint
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.record_return(self.eval(node.value))  # generators of secrets
            return set()
        if isinstance(node, ast.YieldFrom):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            return set()
        return set()

    def eval_name(self, node: ast.Name) -> Taint:
        if node.id in self.env:
            return set(self.env[node.id])
        qualified = f"{self.module.module}.{node.id}"
        for table in (SECRET_GLOBALS, self.analysis.learned_globals):
            if qualified in table:
                return {("secret", table[qualified])}
        origin = self.imports.origin(node.id)
        if origin is not None:
            for table in (SECRET_GLOBALS, self.analysis.learned_globals):
                if origin in table:
                    return {("secret", table[origin])}
        return set()

    def eval_attribute(self, node: ast.Attribute) -> Taint:
        dotted = self.imports.resolve(node)
        if dotted is not None:
            for table in (SECRET_GLOBALS, self.analysis.learned_globals):
                if dotted in table:
                    return {("secret", table[dotted])}
        base = self.eval(node.value)
        if node.attr in PUBLIC_ATTRIBUTES:
            return set()  # the public projection of a secret-bearing object
        if node.attr in SECRET_ATTRIBUTES:
            return base | {("secret", SECRET_ATTRIBUTES[node.attr])}
        if node.attr in self.analysis.learned_attrs:
            return base | {("secret", self.analysis.learned_attrs[node.attr])}
        return base

    # ------------------------------------------------------------------
    # calls: sinks, summaries, sanitizers
    # ------------------------------------------------------------------
    def eval_call(self, node: ast.Call) -> Taint:
        func = node.func
        arg_taints: List[Taint] = [
            self.eval(a.value if isinstance(a, ast.Starred) else a) for a in node.args
        ]
        kw_taints: Dict[Optional[str], Taint] = {
            kw.arg: self.eval(kw.value) for kw in node.keywords
        }

        bare: Optional[str] = None
        dotted: Optional[str] = None
        base_taint: Taint = set()
        is_attribute = isinstance(func, ast.Attribute)
        if isinstance(func, ast.Attribute):
            bare = func.attr
            dotted = self.imports.resolve(func)
            base_taint = self.eval(func.value)
        elif isinstance(func, ast.Name):
            bare = func.id
            dotted = self.imports.origin(func.id)
            if dotted is None:
                local = f"{self.module.module}.{func.id}"
                if (
                    local in self.analysis.graph.by_dotted
                    or local in SECRET_FUNCTIONS
                    or local in SANITIZER_FUNCTIONS
                ):
                    dotted = local
        else:
            self.eval(func)

        self._last_tuple = None  # sub-evaluations above are done
        self.check_sinks(node, bare, dotted, is_attribute, arg_taints, kw_taints)

        # enclave trusted_state reads: state.get("identity_key")
        if (
            is_attribute
            and bare == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in SECRET_STATE_KEYS
        ):
            return base_taint | {("secret", SECRET_STATE_KEYS[node.args[0].value])}

        # registry sources win over everything (HKDF uses HMAC internally
        # but returns keys, not tags)
        if dotted is not None and dotted in SECRET_FUNCTIONS:
            return {("secret", SECRET_FUNCTIONS[dotted])}
        if bare is not None and bare in SECRET_METHODS:
            return {("secret", SECRET_METHODS[bare])}

        # sanitizers cut the flow: ciphertext, tags, hashes, lengths
        if dotted is not None and dotted in SANITIZER_FUNCTIONS:
            return set()
        if bare is not None and bare in SANITIZER_METHODS:
            return set()

        # known callee: apply its summary (receiver taint does not pass)
        all_arg_taints = arg_taints + [t for t in kw_taints.values()]
        callees = self.analysis.graph.resolve_call(self.module, node)
        if callees:
            result: Taint = set()
            for callee in callees:
                summary = self.analysis.summary_of(callee)
                result |= {("secret", desc) for desc in summary.returns_secret}
                for param, taint in self.map_arguments(callee, arg_taints, kw_taints):
                    if param in summary.return_params:
                        result |= taint
                    for rule, detail in summary.param_sinks.get(param, ()):
                        self.hit_sink(
                            rule,
                            detail,
                            node,
                            taint,
                            via_param=param,
                            via_callee=callee.qualname,
                        )
            if len(callees) == 1:
                summary = self.analysis.summary_of(callees[0])
                if summary.tuple_returns is not None and not summary.tuple_conflict:
                    by_param: Dict[str, Taint] = {}
                    for param, taint in self.map_arguments(callees[0], arg_taints, kw_taints):
                        by_param.setdefault(param, set()).update(taint)
                    self._last_tuple = []
                    for descs, params in summary.tuple_returns:
                        element: Taint = {("secret", desc) for desc in descs}
                        for param in params:
                            element |= by_param.get(param, set())
                        self._last_tuple.append(element)
            return result

        # unknown callee (str, bytes, .hex, dataclass constructors...):
        # conservatively pass taint through
        result = set(base_taint)
        for taint in all_arg_taints:
            result |= taint
        return result

    def map_arguments(
        self,
        callee: FunctionInfo,
        arg_taints: List[Taint],
        kw_taints: Dict[Optional[str], Taint],
    ) -> List[Tuple[str, Taint]]:
        """Pair caller argument taints with callee parameter names."""
        pairs: List[Tuple[str, Taint]] = []
        for index, taint in enumerate(arg_taints):
            if index < len(callee.params):
                pairs.append((callee.params[index], taint))
        for name, taint in kw_taints.items():
            if name is not None and name in callee.params:
                pairs.append((name, taint))
        return pairs

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def check_sinks(
        self,
        node: ast.Call,
        bare: Optional[str],
        dotted: Optional[str],
        is_attribute: bool,
        arg_taints: List[Taint],
        kw_taints: Dict[Optional[str], Taint],
    ) -> None:
        all_args = arg_taints + [t for t in kw_taints.values()]
        union: Taint = set()
        for taint in all_args:
            union |= taint

        if is_attribute and bare in OCALL_METHODS:
            # first positional arg is the ocall *name*, not payload
            payload: Taint = set()
            for taint in arg_taints[1:] + [t for t in kw_taints.values()]:
                payload |= taint
            self.hit_sink("TF501", "an ocall argument (leaves the enclave)", node, payload)
            return
        if bare == "print" and dotted is None and isinstance(node.func, ast.Name):
            self.hit_sink("TF502", "a print() call", node, union)
            return
        if dotted is not None and dotted.startswith(TRACE_PREFIXES):
            self.hit_sink("TF502", f"a trace/log event ({dotted})", node, union)
            return
        if (is_attribute and bare in TRACE_METHODS) or bare in TRACE_CONSTRUCTORS:
            self.hit_sink("TF502", f"a trace/log event ({bare})", node, union)
            return
        if self.module.domain is not TrustDomain.TRUSTED and (
            bare in PACKET_CONSTRUCTORS
            or (dotted is not None and dotted.startswith(PACKET_MODULE_PREFIXES))
        ):
            self.hit_sink(
                "TF504",
                f"packet construction ({bare or dotted}) outside the enclave",
                node,
                union,
            )
            return
        if (dotted is not None and dotted in ARTIFACT_FUNCTIONS) or (
            is_attribute and bare in ARTIFACT_METHODS
        ):
            self.hit_sink("TF505", f"an artifact writer ({dotted or bare})", node, union)
            return
        if bare in EXPORT_HOOKS:
            self.hit_sink("TF506", f"the injected export hook '{bare}'", node, union)

    def hit_sink(
        self,
        rule: str,
        detail: str,
        node: ast.AST,
        taint: Taint,
        via_param: Optional[str] = None,
        via_callee: Optional[str] = None,
    ) -> None:
        """Record a sink: findings for secrets, summary edges for params.

        The summary always records the *original* sink detail — context
        like "inside callee()" goes only into the report message, so the
        set of (rule, detail) pairs stays finite and the fixpoint
        converges.
        """
        secrets = _secrets(taint)
        if secrets and self.report:
            if via_param is not None:
                message = (
                    f"argument '{via_param}' carries secret ({secrets[0]}) "
                    f"which reaches {detail} inside {via_callee}()"
                )
            else:
                message = f"secret ({secrets[0]}) flows into {detail}"
            self.findings.append(
                RawFinding(
                    rule=rule,
                    module=self.module,
                    node=node,
                    message=message,
                    symbol=None if self.fn.qualname == "<module>" else self.fn.qualname,
                )
            )
        for name in _params(taint):
            self.summary.sink(name, rule, detail)

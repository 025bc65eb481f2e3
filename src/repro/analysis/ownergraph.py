"""Whole-program ownership analysis (the SS6xx engine).

Simulators share one process: the test suite builds hundreds, and the
experiment runner runs its experiments one after another.  A run is
only reproducible if no state is silently process-global: anything a
simulator writes outside its own :class:`~repro.sim.engine.Simulator`
(module globals, class attributes, process-wide caches) is seen by
every later or interleaved simulator, whose results then depend on
what ran before it.  This module computes, statically, which functions are **sim-driven**
(reachable from code executed under a ``Simulator`` run) and which of
those touch **process-owned** state.

Calls are resolved over the shared
:class:`~repro.analysis.callgraph.CallGraph` (the TF5xx engine reads the
same object), and a reachability fixpoint is run from the *sim-driven
seeds* — arguments of ``sim.process(...)`` / ``sim.schedule(...)`` and
every ``event.add_callback(...)`` target, plus function references that
escape out of already-sim-driven code (callbacks registered with
gateways, handlers stored for later dispatch).

Five rules are reported over the sim-driven set:

* **SS601** — mutation of a module-level mutable global.
* **SS602** — a Simulator-owned object stored into process-global
  state (module global or class attribute), where every later
  simulator in the process can reach it.
* **SS603** — mutation of a process-wide cache/registry/counter (the
  name-based specialisation of SS601 that points at the per-Simulator
  migration instead of a generic "don't do that").
* **SS604** — mutation of a shared (class-level) attribute from an
  instance/class method.
* **SS605** — non-reentrant check-then-act lazy initialisation of a
  module global or class attribute.

One buffer-lifetime rule is reported over *every* function, sim-driven
or not, because a dangling view is wrong whoever calls it:

* **HP705** — a ``memoryview`` over a reused buffer (an attribute such
  as ``self._scratch``) or over a local buffer the function mutates
  escapes by ``return`` or by a store, so a later write changes bytes
  the holder of the view still reads.

Deliberately shared state is *waived*: inline with
``# endbox-lint: shared(SS601)`` on the offending line (``SS6xx``
covers the family), or through an entry in :data:`OWNERSHIP` — the
code-reviewed registry of ownership facts, modeled on the TF5xx
declassification registry.  Every entry carries the justification a
reviewer signed off on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, RawFinding, unique
from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import Waiver

# ----------------------------------------------------------------------
# rule family
# ----------------------------------------------------------------------
OWNERSHIP_RULES: Dict[str, str] = {
    "SS601": "sim-driven code mutates a module-level mutable global",
    "SS602": "Simulator-owned object escapes into process-global storage (later simulators can reach it)",
    "SS603": "process-wide cache/registry/counter mutated from sim-driven code (key it per-Simulator)",
    "SS604": "sim-driven instance method mutates a shared class attribute",
    "SS605": "non-reentrant lazy initialization of shared state (the first simulator's object leaks into every later one)",
    "HP705": "memoryview escapes past the point where its backing buffer is reused",
}


# ----------------------------------------------------------------------
# the ownership registry
# ----------------------------------------------------------------------
#: every entry here is reviewed, deliberately-shared state; anything new
#: must either be migrated to per-Simulator lifetime or argued into this
#: table in review.
OWNERSHIP: List[Waiver] = [
    Waiver(
        rule="SS601",
        path="repro/telemetry/names.py",
        contains="_NAMES",
        note=(
            "the instrument-name registry holds metadata (kind/unit/help), "
            "never counts; registration is idempotent and conflict-checked, "
            "so simulators registering the same name converge"
        ),
    ),
    Waiver(
        rule="SS603",
        path="repro/crypto/rsa.py",
        contains="_KEYPAIR_CACHE",
        note=(
            "pure memo of key generation keyed by (bits, seed), holding "
            "(n, d, p, q) so private-key operations can run by CRT; the "
            "value is a deterministic function of the key, so simulators "
            "sharing it cannot diverge, and the IAS and platform keys "
            "(seeded by provisioning order) hit it on every later build"
        ),
    ),
    Waiver(
        rule="SS604",
        path="repro/netsim/addresses.py",
        contains="_intern",
        note=(
            "the address intern table is a bounded pure memo keyed by the "
            "32-bit value; an entry is a deterministic function of its key and "
            "addresses compare by value, so simulators sharing it cannot "
            "diverge, and interning is what keeps per-packet address lookup "
            "allocation-free on the parse path"
        ),
    ),
    Waiver(
        rule="SS601",
        path="repro/telemetry/registry.py",
        contains="_current",
        note=(
            "the current-registry pointer is the scope machinery itself, "
            "not simulation state: Simulator.run()/step() save and restore "
            "it around every slice, so interleaved sims never observe each "
            "other's registry (tests/test_shard_isolation.py checks this "
            "against fresh-process runs)"
        ),
    ),
]


# ----------------------------------------------------------------------
# analysis tables
# ----------------------------------------------------------------------
#: container methods that mutate their receiver.
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    }
)

#: receiver names that denote the owning simulator at a call site
#: (``self.sim.process(...)``, ``world.sim.schedule(...)``, bare ``sim``).
SIM_RECEIVERS = frozenset({"sim", "simulator", "env"})

#: attribute/parameter names whose value is owned by one Simulator.
SIM_OWNED_NAMES = frozenset({"sim", "simulator", "telemetry"})

#: substrings (of the upper-cased global name) marking cache/registry/
#: counter style state: these report as SS603 with a migration hint
#: instead of the generic SS601.
CACHE_NAME_HINTS = (
    "CACHE", "REGISTRY", "REGISTRIES", "MEMO", "POOL", "HITS", "MISSES",
    "CLEARS", "COUNT", "STATS", "TOTAL", "INSTANCES", "SINGLETON",
)

#: module-level value nodes considered mutable containers.
_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"})


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in _MUTABLE_CTORS
    return False


def _cache_like(name: str) -> bool:
    upper = name.upper()
    return any(hint in upper for hint in CACHE_NAME_HINTS)


def _terminal_name(node: ast.expr) -> Optional[str]:
    """Last identifier of a Name/Attribute chain (``self.sim`` -> ``sim``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class ClassInfo:
    """Class-level state of one class definition."""

    module: ModuleInfo
    name: str  # bare class name
    #: class-level attributes bound to mutable containers
    mutable_attrs: Set[str]
    #: attributes rebound per-instance (``self.x = ...`` in any method)
    instance_attrs: Set[str]
    #: all class-level attribute names (mutable or not)
    class_attrs: Set[str]


class OwnershipAnalysis:
    """Sim-driven reachability plus shared-state and view-escape detection."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.functions = graph.functions
        #: dotted module global -> module dotted name, for mutable
        #: containers assigned at module level
        self.mutable_globals: Dict[str, str] = {}
        #: "module.Class" -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        for module in graph.modules:
            self._scan_module_state(module)

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _scan_module_state(self, module: ModuleInfo) -> None:
        for stmt in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and value is not None
                    and _is_mutable_value(value)
                ):
                    self.mutable_globals[f"{module.module}.{target.id}"] = module.module
            if isinstance(stmt, ast.ClassDef):
                self._scan_class(module, stmt)

    def _scan_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        mutable_attrs: Set[str] = set()
        class_attrs: Set[str] = set()
        instance_attrs: Set[str] = set()
        for stmt in node.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    class_attrs.add(target.id)
                    if value is not None and _is_mutable_value(value):
                        mutable_attrs.add(target.id)
        # any ``self.x = ...`` in a method shadows the class attribute
        # per instance, so mutating ``self.x`` is per-instance state
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                sub_targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in sub_targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        instance_attrs.add(target.attr)
        self.classes[f"{module.module}.{node.name}"] = ClassInfo(
            module=module,
            name=node.name,
            mutable_attrs=mutable_attrs,
            instance_attrs=instance_attrs,
            class_attrs=class_attrs,
        )

    # ------------------------------------------------------------------
    # sim-driven reachability
    # ------------------------------------------------------------------
    def _seeds_and_edges(
        self,
    ) -> Tuple[Set[int], Dict[int, Set[int]], Dict[int, FunctionInfo]]:
        """Seed set plus per-function callee/escaping-ref edges."""
        seeds: Set[int] = set()
        edges: Dict[int, Set[int]] = {}
        by_id: Dict[int, FunctionInfo] = {id(fn): fn for fn in self.functions}
        for fn in self.functions:
            if fn.qualname == "<module>":
                continue  # import-time code runs before any simulator exists
            out: Set[int] = set()
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                # callee edges
                for callee in self.graph.resolve_call(fn.module, node):
                    out.add(id(callee))
                # function references escaping as arguments: if this
                # function runs under a simulator, so (eventually) do
                # the callbacks it hands away
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, (ast.Lambda, ast.Name, ast.Attribute)):
                        for target in self.graph.resolve_reference(fn.module, arg):
                            out.add(id(target))
                # sim-driven seeds
                if isinstance(func, ast.Attribute):
                    recv = _terminal_name(func.value)
                    if func.attr in ("process", "schedule") and recv in SIM_RECEIVERS:
                        for arg in node.args:
                            for target in self.graph.resolve_reference(fn.module, arg):
                                seeds.add(id(target))
                    elif func.attr == "add_callback":
                        for arg in node.args:
                            for target in self.graph.resolve_reference(fn.module, arg):
                                seeds.add(id(target))
            edges[id(fn)] = out
        return seeds, edges, by_id

    def sim_driven(self) -> Set[int]:
        """ids of FunctionInfos reachable from a Simulator run."""
        seeds, edges, _ = self._seeds_and_edges()
        reached: Set[int] = set()
        work = list(seeds)
        while work:
            fid = work.pop()
            if fid in reached:
                continue
            reached.add(fid)
            work.extend(edges.get(fid, ()))
        return reached

    # ------------------------------------------------------------------
    def run(self) -> List[RawFinding]:
        """Reachability, the five SS detectors over sim-driven code, and
        the view-escape detector over every function."""
        reached = self.sim_driven()
        hits: List[RawFinding] = []
        for fn in self.functions:
            if fn.qualname == "<module>":
                continue
            if id(fn) in reached:
                scan = _FunctionScan(self, fn)
                scan.run()
                hits.extend(scan.findings)
            hits.extend(_view_escapes(fn))
        return unique(hits)


class _FunctionScan:
    """One walk of one sim-driven function body: the five detectors."""

    def __init__(self, analysis: OwnershipAnalysis, fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.module = fn.module
        self.imports = fn.module.imports
        self.findings: List[RawFinding] = []
        self.global_names: Set[str] = set()
        self.local_names: Set[str] = set()
        #: local name -> class attribute it aliases (``rows = self.ROWS``)
        self.aliases: Dict[str, str] = {}
        #: local names holding Simulator-owned values
        self.sim_owned: Set[str] = set()
        #: Assign/AugAssign nodes already reported as the act half of a
        #: lazy-init pattern (SS605 subsumes their SS601/603/604 report)
        self.lazy_assigns: Set[int] = set()
        self.class_info = self._enclosing_class()
        self._collect_scope()

    # -- scope --------------------------------------------------------
    def _enclosing_class(self) -> Optional[ClassInfo]:
        if not self.fn.is_method:
            return None
        class_bare = self.fn.qualname.rsplit(".", 2)[-2]
        return self.analysis.classes.get(f"{self.module.module}.{class_bare}")

    @staticmethod
    def _bound_names(target: ast.expr, into: Set[str]) -> None:
        """Names *bound* by an assignment target.

        ``X[k] = v`` and ``X.attr = v`` mutate ``X`` without binding it,
        so Subscript/Attribute bases deliberately do not count — a
        store into a module-global dict must not make the dict look
        like a local.
        """
        if isinstance(target, ast.Name):
            into.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                _FunctionScan._bound_names(elt, into)
        elif isinstance(target, ast.Starred):
            _FunctionScan._bound_names(target.value, into)

    def _collect_scope(self) -> None:
        node = self.fn.node
        self.local_names.update(self.fn.params)
        self.local_names.update({"self", "cls"})
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                self.global_names.update(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    self._bound_names(target, self.local_names)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                self._bound_names(sub.target, self.local_names)
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if item.optional_vars is not None:
                        self._bound_names(item.optional_vars, self.local_names)
            elif isinstance(sub, ast.comprehension):
                self._bound_names(sub.target, self.local_names)
            elif isinstance(sub, ast.NamedExpr):
                self._bound_names(sub.target, self.local_names)
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                self.local_names.add(sub.name)
        self.local_names -= self.global_names

    # -- resolution ---------------------------------------------------
    def _global_target(self, node: ast.expr) -> Optional[str]:
        """Dotted name of the module-level mutable global ``node`` denotes."""
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.global_names:
                return f"{self.module.module}.{name}"
            if name in self.local_names:
                return None
            local = f"{self.module.module}.{name}"
            if local in self.analysis.mutable_globals:
                return local
            origin = self.imports.origin(name)
            if origin is not None and origin in self.analysis.mutable_globals:
                return origin
            return None
        if isinstance(node, ast.Attribute):
            dotted = self.imports.resolve(node)
            if dotted is not None and dotted in self.analysis.mutable_globals:
                return dotted
        return None

    def _class_attr_target(self, node: ast.expr) -> Optional[Tuple[str, str]]:
        """(class name, attr) when ``node`` denotes a class attribute."""
        if not isinstance(node, ast.Attribute):
            return None
        base, attr = node.value, node.attr
        info = self.class_info
        # cls.X / type(self).X inside a method
        if isinstance(base, ast.Name) and base.id == "cls" and info is not None:
            return (info.name, attr)
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "type"
            and info is not None
        ):
            return (info.name, attr)
        # self.X where X is class-level and never instance-shadowed
        if isinstance(base, ast.Name) and base.id == "self" and info is not None:
            if attr in info.mutable_attrs and attr not in info.instance_attrs:
                return (info.name, attr)
            return None
        # ClassName.X for a class known in this module (or imported)
        if isinstance(base, ast.Name):
            for dotted in (f"{self.module.module}.{base.id}", self.imports.origin(base.id)):
                if dotted is not None and dotted in self.analysis.classes:
                    return (self.analysis.classes[dotted].name, attr)
        return None

    def _is_sim_owned(self, node: ast.expr) -> bool:
        """Conservative: does this expression evaluate to sim-owned state?"""
        if isinstance(node, ast.Name):
            return node.id in self.sim_owned or (
                node.id in SIM_OWNED_NAMES and node.id in self.local_names
            )
        if isinstance(node, ast.Attribute):
            if node.attr in SIM_OWNED_NAMES:
                return True
            return self._is_sim_owned(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Simulator":
                return True
            return any(self._is_sim_owned(a) for a in node.args) or any(
                self._is_sim_owned(kw.value) for kw in node.keywords
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._is_sim_owned(e) for e in node.elts)
        return False

    # -- reporting ----------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            RawFinding(
                rule=rule,
                module=self.module,
                node=node,
                message=message,
                symbol=self.fn.qualname,
            )
        )

    def _report_global_mutation(self, node: ast.AST, dotted: str, value: Optional[ast.expr]) -> None:
        if value is not None and self._is_sim_owned(value):
            self._report(
                "SS602",
                node,
                f"Simulator-owned object stored into process-global '{dotted}'",
            )
            return
        bare = dotted.rsplit(".", 1)[-1]
        if _cache_like(bare):
            self._report(
                "SS603",
                node,
                f"process-wide cache/registry '{dotted}' mutated from sim-driven "
                f"code; key it per-Simulator (a pure memo of its key may be waived)",
            )
        else:
            self._report(
                "SS601",
                node,
                f"sim-driven code mutates module global '{dotted}'",
            )

    def _report_class_mutation(
        self, node: ast.AST, cls_attr: Tuple[str, str], value: Optional[ast.expr]
    ) -> None:
        label = f"{cls_attr[0]}.{cls_attr[1]}"
        if value is not None and self._is_sim_owned(value):
            self._report(
                "SS602",
                node,
                f"Simulator-owned object stored into shared class attribute '{label}'",
            )
            return
        self._report(
            "SS604",
            node,
            f"sim-driven method mutates shared class attribute '{label}' "
            f"(shared by every instance in every simulator)",
        )

    # -- the walk -----------------------------------------------------
    def run(self) -> None:
        self._find_lazy_inits()
        for node in ast.walk(self.fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not self.fn.node:
                continue  # nested defs are their own FunctionInfo
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._check_store(node, target, node.value)
                self._track_locals(node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._check_store(node, node.target, node.value)
            elif isinstance(node, ast.AugAssign):
                self._check_store(node, node.target, node.value)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        self._check_container_base(target, target.value)
            elif isinstance(node, ast.Call):
                self._check_mutating_call(node)

    def _find_lazy_inits(self) -> None:
        """SS605: ``if X is None: X = ...`` over shared state."""
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.If):
                continue
            guarded = self._lazy_guard_target(node.test)
            if guarded is None:
                continue
            kind, key = guarded
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if kind == "global" and isinstance(target, ast.Name):
                        if f"{self.module.module}.{target.id}" == key or target.id == key.rsplit(".", 1)[-1]:
                            if self._global_target(target) == key or target.id in self.global_names:
                                self.lazy_assigns.add(id(stmt))
                                self._report(
                                    "SS605",
                                    node,
                                    f"non-reentrant lazy initialization of module global "
                                    f"'{key}'; the first simulator to reach it builds the "
                                    f"object every later one in the process shares",
                                )
                                return
                    elif kind == "classattr":
                        cls_attr = self._class_attr_target(target)
                        if cls_attr is not None and f"{cls_attr[0]}.{cls_attr[1]}" == key:
                            self.lazy_assigns.add(id(stmt))
                            self._report(
                                "SS605",
                                node,
                                f"non-reentrant lazy initialization of shared class "
                                f"attribute '{key}'; the first simulator to reach it "
                                f"builds the object every later one in the process shares",
                            )
                            return

    def _lazy_guard_target(self, test: ast.expr) -> Optional[Tuple[str, str]]:
        """('global'|'classattr', key) when ``test`` is an is-None guard."""
        expr: Optional[ast.expr] = None
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.Eq))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            expr = test.left
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            expr = test.operand
        if expr is None:
            return None
        dotted = self._global_target(expr)
        if dotted is None and isinstance(expr, ast.Name) and expr.id in self.global_names:
            dotted = f"{self.module.module}.{expr.id}"
        if dotted is not None:
            return ("global", dotted)
        cls_attr = self._class_attr_target(expr)
        if cls_attr is not None:
            return ("classattr", f"{cls_attr[0]}.{cls_attr[1]}")
        return None

    def _track_locals(self, node: ast.Assign) -> None:
        """Maintain the sim-owned set and class-attr alias map."""
        sim = self._is_sim_owned(node.value)
        alias: Optional[str] = None
        if (
            isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("self", "cls")
            and self.class_info is not None
            and node.value.attr in self.class_info.mutable_attrs
            and node.value.attr not in self.class_info.instance_attrs
        ):
            alias = node.value.attr
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in self.local_names:
                if sim:
                    self.sim_owned.add(target.id)
                else:
                    self.sim_owned.discard(target.id)
                if alias is not None:
                    self.aliases[target.id] = alias
                else:
                    self.aliases.pop(target.id, None)

    def _check_store(self, stmt: ast.AST, target: ast.expr, value: Optional[ast.expr]) -> None:
        if id(stmt) in self.lazy_assigns:
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_names:
                self._report_global_mutation(stmt, f"{self.module.module}.{target.id}", value)
            return
        if isinstance(target, ast.Subscript):
            self._check_container_base(stmt, target.value, value)
            return
        if isinstance(target, ast.Attribute):
            # self.x = ... inside a method is per-instance state, except
            # when x is a never-shadowed class-level attr handled above
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                return
            cls_attr = self._class_attr_target(target)
            if cls_attr is not None:
                self._report_class_mutation(stmt, cls_attr, value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(stmt, elt, value)

    def _check_container_base(
        self, stmt: ast.AST, base: ast.expr, value: Optional[ast.expr] = None
    ) -> None:
        """Subscript store/delete on a shared container."""
        dotted = self._global_target(base)
        if dotted is not None:
            self._report_global_mutation(stmt, dotted, value)
            return
        cls_attr = self._class_attr_target(base)
        if cls_attr is not None:
            self._report_class_mutation(stmt, cls_attr, value)
            return
        if isinstance(base, ast.Name) and base.id in self.aliases and self.class_info is not None:
            self._report_class_mutation(
                stmt, (self.class_info.name, self.aliases[base.id]), value
            )

    def _check_mutating_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        base = func.value
        value = node.args[0] if node.args else None
        dotted = self._global_target(base)
        if dotted is not None:
            self._report_global_mutation(node, dotted, value)
            return
        cls_attr = self._class_attr_target(base)
        if cls_attr is not None:
            self._report_class_mutation(node, cls_attr, value)
            return
        if isinstance(base, ast.Name) and base.id in self.aliases and self.class_info is not None:
            self._report_class_mutation(
                node, (self.class_info.name, self.aliases[base.id]), value
            )


# ----------------------------------------------------------------------
# HP705: views over reused buffers
# ----------------------------------------------------------------------
def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and its descendants in pre-order, not entering nested defs
    (each is its own FunctionInfo)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_nodes(child)


def _memoryview_base(
    value: ast.expr, views: Dict[str, Tuple[str, bool]]
) -> Optional[Tuple[str, bool]]:
    """(base buffer description, base is reused) when ``value`` is a view."""
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "memoryview"
        and value.args
    ):
        base = value.args[0]
        if isinstance(base, ast.Attribute):
            # persistent buffer (self.buf / obj.buf): reused by design
            return (ast.unparse(base), True)
        if isinstance(base, ast.Name):
            return (base.id, False)
        return (ast.unparse(base), False)
    if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
        # a slice of a known view is a view over the same buffer
        return views.get(value.value.id)
    return None


def _escape(node: ast.AST) -> Optional[Tuple[str, ast.expr]]:
    """('returned'|'stored', value expr) when ``node`` hands a value out."""
    if isinstance(node, ast.Return) and node.value is not None:
        return ("returned", node.value)
    if isinstance(node, ast.Assign):
        if any(isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets):
            return ("stored", node.value)
        return None
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        call = node.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATING_METHODS
            and call.args
        ):
            return ("stored", call.args[0])
    return None


def _view_escapes(fn: FunctionInfo) -> List[RawFinding]:
    """HP705 hits in one function body."""
    if "memoryview" not in fn.module.source:
        return []  # every view starts at a ``memoryview(...)`` call
    #: view name -> (base buffer description, base is reused)
    views: Dict[str, Tuple[str, bool]] = {}
    #: local buffer names mutated anywhere in the function
    mutated: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            view_of = _memoryview_base(node.value, views)
            for target in node.targets:
                if isinstance(target, ast.Name) and view_of is not None:
                    views[target.id] = view_of
                elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                    mutated.add(target.value.id)  # buf[...] = x
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            mutated.add(node.target.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            mutated.add(node.func.value.id)
    if not views:
        return []
    hits: List[RawFinding] = []
    for node in _own_nodes(fn.node):
        escape = _escape(node)
        if escape is None:
            continue
        verb, value = escape
        for sub in ast.walk(value):
            if not isinstance(sub, ast.Name) or sub.id not in views:
                continue
            base, reused = views[sub.id]
            if reused or base in mutated:
                hits.append(
                    RawFinding(
                        rule="HP705",
                        module=fn.module,
                        node=node,
                        message=(
                            f"memoryview '{sub.id}' over reused buffer '{base}' is "
                            f"{verb} past the buffer's next reuse; copy the bytes out "
                            f"or scope the view to this burst"
                        ),
                        symbol=fn.qualname,
                    )
                )
    return hits

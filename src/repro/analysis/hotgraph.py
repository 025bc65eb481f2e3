"""Whole-program hot-path hygiene analysis (the HP7xx engine).

ROADMAP item 4 — moving the packet path onto ``memoryview``/``bytearray``
zero-copy slices — needs two things the tree cannot show today: a
file-by-file worklist of every place the per-packet path copies bytes,
allocates objects or formats strings, and a safety net that keeps
catching regressions once views start flowing netsim → VPN → Click.
This module computes, statically, which functions are **hot** (reachable
from a per-packet entry point) and runs five detectors over them.

The machinery reuses the :mod:`~repro.analysis.ownergraph` call-graph
engine (function tables keyed by dotted and bare names, resolved call
and reference edges, reachability fixpoint); only the seed set differs.
Hot seeds are the code-reviewed :data:`HOT_SEEDS` table of per-packet
entry points: ``Router.process`` / ``process_batch``, the gateway
``ecall``/``ecall_batch``/``ocall`` crossings, ``ecall_process_packet``,
data-channel protect/unprotect, keystream generation, and netsim frame
delivery.  Bound method references (``push = target.push``) count as
call edges.

Five rules are reported over hot functions:

* **HP701** — copy-producing bytes operations on packet payloads
  (slicing, ``+`` concatenation, ``bytes()`` round-trips,
  ``b"".join``).
* **HP702** — per-packet object/dict/list allocation that could be
  hoisted to burst or session scope.
* **HP703** — per-packet string formatting / f-strings / logging.
* **HP704** — a buffer handed *by value* across a hot layer boundary
  (the :data:`HOT_BOUNDARIES` table names the netsim→VPN→Click handoff
  signatures) where a ``memoryview``-compatible buffer is expected.
* **HP705** — a ``memoryview`` stored or returned past the point where
  its backing buffer is reused (the buffer-lifetime rule that makes the
  zero-copy refactor safe to keep).

Required copies are *waived*: inline with
``# endbox-lint: hotpath(HP701)`` on the offending line (``HP7xx``
covers the family), or through an entry in :data:`HOT_ALLOWANCES` — the
code-reviewed registry where every entry says why the copy is required
(sealing, MAC input, wire emission), modeled on the SS6xx OWNERSHIP
registry.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import FunctionInfo
from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import Finding
from repro.analysis.ownergraph import GENERIC_NAMES, MUTATING_METHODS, OwnershipAnalysis

# ----------------------------------------------------------------------
# rule family
# ----------------------------------------------------------------------
HP_RULES: Dict[str, str] = {
    "HP701": "copy-producing bytes operation on a packet payload in per-packet code",
    "HP702": "per-packet object/container allocation hoistable to burst or session scope",
    "HP703": "string formatting/logging on the per-packet fast path",
    "HP704": "buffer handed by value across a hot layer boundary (memoryview expected)",
    "HP705": "memoryview escapes past the point where its backing buffer is reused",
}

#: inline waiver: ``# endbox-lint: hotpath(HP701)`` on the offending
#: line.  ``HP7xx`` waives the whole family.
HOTPATH_RE = re.compile(r"#\s*endbox-lint:\s*hotpath\((?P<rules>[\w\s,]+)\)")


def hotpath_rules(comment_line: str) -> Optional[FrozenSet[str]]:
    """Rule ids waived by an inline ``hotpath(...)`` comment, or None."""
    match = HOTPATH_RE.search(comment_line)
    if match is None:
        return None
    return frozenset(rule.strip() for rule in match.group("rules").split(","))


# ----------------------------------------------------------------------
# the allowance registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HotAllowance:
    """One reviewed, *required* copy/allocation on the hot path.

    Matching mirrors the SS6xx ``SharedStateWaiver`` (rule exact, path
    suffix, message substring) and lives in code so the justification is
    reviewed like any other source change.
    """

    rule: str
    path: str
    note: str
    contains: Optional[str] = None

    def matches(self, finding: Finding) -> bool:
        """True when this entry waives ``finding``."""
        if finding.rule != self.rule:
            return False
        normalized = finding.path.replace("\\", "/")
        if normalized != self.path and not normalized.endswith("/" + self.path.lstrip("/")):
            return False
        if self.contains is not None and self.contains not in finding.message:
            return False
        return True


#: every entry here is a reviewed copy the data plane cannot avoid;
#: anything new must either be eliminated (ROADMAP item 4) or argued
#: into this table in review.
HOT_ALLOWANCES: List[HotAllowance] = [
    HotAllowance(
        rule="HP701",
        path="repro/crypto/stream.py",
        contains="b''.join",
        note=(
            "keystream assembly: the block generator emits 16-byte blocks "
            "and one contiguous buffer is the product being cached; the "
            "join IS the required materialization, not an avoidable copy"
        ),
    ),
    HotAllowance(
        rule="HP701",
        path="repro/vpn/channel.py",
        contains="'payload' + ",
        note=(
            "MAC tag append: the wire format is ciphertext||tag, so the "
            "protected body must be materialized as one buffer before it "
            "is handed to the socket layer"
        ),
    ),
    HotAllowance(
        rule="HP704",
        path="repro/netsim/stack.py",
        contains="parse_ipv4",
        note=(
            "IP reassembly: the joined fragment buffer is a new datagram "
            "by construction and must be re-parsed to rebuild the L4 "
            "object; there is no pre-existing buffer to view into"
        ),
    ),
]


def hot_allowance_for(finding: Finding) -> Optional[HotAllowance]:
    """The HOT_ALLOWANCES entry waiving ``finding``, or None."""
    for entry in HOT_ALLOWANCES:
        if entry.matches(finding):
            return entry
    return None


# ----------------------------------------------------------------------
# analysis tables
# ----------------------------------------------------------------------
#: code-reviewed per-packet entry points: (module, qualname) pairs that
#: seed hot reachability.  Nested closures use their dotted qualname
#: (``outer.inner``).
HOT_SEEDS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        # the Click router
        ("repro.click.router", "Router.process"),
        ("repro.click.router", "Router.process_batch"),
        # the enclave crossing itself and the per-packet ecall handlers
        ("repro.sgx.gateway", "EnclaveGateway.ecall"),
        ("repro.sgx.gateway", "EnclaveGateway.ecall_batch"),
        ("repro.sgx.gateway", "EnclaveGateway.ocall"),
        ("repro.core.enclave_app", "ecall_process_packet"),
        # data-channel crypto
        ("repro.vpn.channel", "DataChannel.protect"),
        ("repro.vpn.channel", "DataChannel.protect_batch"),
        ("repro.vpn.channel", "DataChannel.unprotect"),
        ("repro.vpn.channel", "DataChannel.unprotect_batch"),
        ("repro.crypto.stream", "KeystreamCipher.process"),
        ("repro.crypto.stream", "KeystreamCipher._keystream"),
        # netsim frame delivery
        ("repro.netsim.link", "Link._pump"),
        ("repro.netsim.link", "Link.transmit"),
        ("repro.netsim.interface", "Interface.deliver"),
        # VPN per-packet workers (server sessions, client loops)
        ("repro.vpn.openvpn", "OpenVpnServer._session_rx"),
        ("repro.vpn.openvpn", "OpenVpnServer._session_tx"),
        ("repro.vpn.openvpn", "OpenVpnServer._send_data"),
        ("repro.vpn.openvpn", "OpenVpnClient._worker"),
        ("repro.vpn.openvpn", "OpenVpnClient._handle_egress"),
        ("repro.vpn.openvpn", "OpenVpnClient._handle_data"),
    }
)

#: code-reviewed layer-boundary handoff signatures: bare callee name ->
#: (index of the buffer argument, what the boundary is).  HP704 fires
#: when the buffer argument is a copy-producing expression — the callee
#: would accept a memoryview, but a fresh byte string is built instead.
HOT_BOUNDARIES: Dict[str, Tuple[int, str]] = {
    # host socket -> netsim wire (VPN record leaves the process)
    "sendto": (0, "VPN socket -> netsim wire"),
    # netsim link -> receiving interface (frame delivery)
    "deliver": (0, "netsim link -> interface frame delivery"),
    "transmit": (1, "interface -> netsim link frame handoff"),
    # host VPN -> enclave crypto (plaintext record into the channel)
    "protect": (1, "VPN record -> data-channel protection"),
    # VPN reassembly -> Click packet parse
    "parse_ipv4": (0, "VPN tunnel payload -> Click packet parse"),
}

#: identifier hints marking an expression as packet payload bytes; the
#: terminal name of a Name/Attribute chain is matched case-insensitively.
PAYLOAD_NAMES: FrozenSet[str] = frozenset(
    {
        "payload", "plaintext", "ciphertext", "body", "data", "frame",
        "frames", "inner_bytes", "piece", "pieces", "wire", "blob", "buf",
        "buffer", "chunk", "chunks", "record", "records", "segment",
        "datagram", "keystream", "cached", "blocks", "raw", "tag",
        "packet_bytes", "stream",
    }
)

#: logger-ish receivers and methods for the HP703 logging detector.
_LOG_RECEIVERS = frozenset({"log", "logger", "logging"})
_LOG_METHODS = frozenset({"debug", "info", "warning", "error", "exception", "log"})

#: CapWord constructor names that do NOT allocate per-packet state worth
#: hoisting (exception types are raised on error paths only).
_NON_ALLOC_SUFFIXES = ("Error", "Exception", "Warning")

_CAPWORD_RE = re.compile(r"^_?[A-Z][A-Za-z0-9]*$")


def _terminal_name(node: ast.expr) -> Optional[str]:
    """Last identifier of a Name/Attribute chain (``self.buf`` -> ``buf``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_payload_expr(node: ast.expr) -> bool:
    """Does ``node`` (or its base) denote packet payload bytes?"""
    if isinstance(node, ast.Subscript):
        return _is_payload_expr(node.value)
    name = _terminal_name(node)
    return name is not None and name.lower() in PAYLOAD_NAMES


def _is_capword_ctor(name: str) -> bool:
    """CapWord class-constructor names (``VpnPacket``), not CONSTANTS."""
    if not _CAPWORD_RE.match(name):
        return False
    if not any(ch.islower() for ch in name):
        return False  # _HEADER, OP_DATA style constants
    return not name.endswith(_NON_ALLOC_SUFFIXES)


def _is_copy_expr(node: ast.expr) -> bool:
    """Expressions that materialize a fresh byte string."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "bytes":
            return True
        if isinstance(func, ast.Attribute):
            if func.attr == "serialize":
                return True
            if func.attr == "join" and isinstance(func.value, ast.Constant):
                return True
    return False


@dataclass
class RawHotFinding:
    """One hot-path hygiene violation, before waiver filtering."""

    rule: str
    module: ModuleInfo
    node: ast.AST
    message: str
    symbol: Optional[str] = None


class HotPathAnalysis(OwnershipAnalysis):
    """Hot reachability (per-packet entry points) plus five detectors.

    Subclasses :class:`~repro.analysis.ownergraph.OwnershipAnalysis` for
    its function tables and call/reference resolution; only the seed set
    and the per-function detectors differ.
    """

    #: regex/control-loop verbs whose bare-name fallback would drag
    #: session-setup code into the hot set (``match.start()`` is not
    #: ``OpenVpnClient.start``)
    generic_names = GENERIC_NAMES | frozenset(
        {"start", "end", "group", "span", "match", "search", "stop", "shutdown"}
    )

    # ------------------------------------------------------------------
    # hot reachability
    # ------------------------------------------------------------------
    def _hot_seeds(self) -> Set[int]:
        seeds: Set[int] = set()
        for fn in self.functions:
            if (fn.module.module, fn.qualname) in HOT_SEEDS:
                seeds.add(id(fn))
        return seeds

    def _hot_edges(self) -> Dict[int, Set[int]]:
        """Callee edges plus escaping/bound function references.

        Beyond the call and call-argument edges of the SS6xx engine,
        a plain ``push = target.push`` binding counts: code that stores
        bound methods and calls them per packet makes the referenced
        bodies hot whenever the binder is.

        Constructor bodies (``__init__``/``__new__``) are deliberately
        NOT traversed: per-packet construction is already flagged HP702
        at the call site, and constructor edges would drag the whole
        session-setup plane (built once per session, not per packet)
        into the hot set.
        """
        edges: Dict[int, Set[int]] = {}
        for fn in self.functions:
            if fn.qualname == "<module>":
                continue
            out: Set[int] = set()

            def connect(targets) -> None:
                for target in targets:
                    if target.bare not in ("__init__", "__new__"):
                        out.add(id(target))

            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    connect(self.resolve_call(fn.module, node))
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        if isinstance(arg, (ast.Lambda, ast.Name, ast.Attribute)):
                            connect(self.resolve_reference(fn.module, arg))
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                    connect(self.resolve_reference(fn.module, node.value))
            edges[id(fn)] = out
        return edges

    def hot_functions(self) -> Set[int]:
        """ids of FunctionInfos reachable from a per-packet entry point."""
        seeds = self._hot_seeds()
        edges = self._hot_edges()
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
    def run(self) -> List[RawHotFinding]:
        """Reachability, then the five detectors over hot code."""
        reached = self.hot_functions()
        findings: List[RawHotFinding] = []
        seen: Set[Tuple[str, str, int, int, str]] = set()
        for fn in self.functions:
            if fn.qualname == "<module>" or id(fn) not in reached:
                continue
            scan = _HotScan(fn)
            scan.run()
            for hit in scan.findings:
                key = (
                    hit.rule,
                    hit.module.path,
                    getattr(hit.node, "lineno", 0),
                    getattr(hit.node, "col_offset", 0),
                    hit.message,
                )
                if key not in seen:
                    seen.add(key)
                    findings.append(hit)
        return findings


class _HotScan:
    """One walk of one hot function body: the five detectors.

    ``raise`` subtrees are skipped (error paths leave the fast path by
    definition) and nested ``def``s are their own FunctionInfo.
    """

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.module = fn.module
        self.findings: List[RawHotFinding] = []
        #: local names bound to memoryviews -> description of the base buffer
        self.views: Dict[str, str] = {}
        #: view name -> True when the base buffer is persistent/reused
        self.view_base_reused: Dict[str, bool] = {}
        #: local buffer names mutated anywhere in this function
        self.mutated_locals: Set[str] = set()

    # -- reporting ----------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            RawHotFinding(
                rule=rule,
                module=self.module,
                node=node,
                message=message,
                symbol=self.fn.qualname,
            )
        )

    # -- the walk -----------------------------------------------------
    def run(self) -> None:
        self._collect_buffer_lifetimes()
        self._walk(self.fn.node, root=True)

    def _walk(self, node: ast.AST, root: bool = False) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not root:
            return  # nested defs are their own FunctionInfo
        if isinstance(node, ast.Raise):
            return  # error paths leave the fast path
        self._check(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _check(self, node: ast.AST) -> None:
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            if _is_payload_expr(node.value):
                self._report(
                    "HP701",
                    node,
                    f"slices payload '{_terminal_name(node.value)}' (copies the "
                    f"slice); carve a memoryview instead",
                )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            self._check_concat(node)
        elif isinstance(node, ast.Call):
            self._check_call(node)
        elif isinstance(node, ast.JoinedStr):
            if any(isinstance(part, ast.FormattedValue) for part in node.values):
                self._report(
                    "HP703",
                    node,
                    "f-string evaluated per packet; hoist the formatting off "
                    "the fast path or guard it behind a flag",
                )
        elif isinstance(node, (ast.Dict, ast.List, ast.Set)):
            if getattr(node, "keys", None) or getattr(node, "elts", None):
                kind = type(node).__name__.lower()
                self._report(
                    "HP702",
                    node,
                    f"{kind} literal allocated per packet; hoist it to burst "
                    f"or session scope",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            self._report(
                "HP702",
                node,
                "comprehension allocates a fresh container per packet; "
                "reuse a burst-scoped accumulator",
            )
        elif isinstance(node, (ast.Return, ast.Assign, ast.Expr)):
            self._check_view_escape(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if isinstance(node.left, ast.Constant) and isinstance(node.left.value, str):
                self._report(
                    "HP703",
                    node,
                    "%-formatting evaluated per packet; hoist it off the fast path",
                )

    def _check_concat(self, node: ast.BinOp) -> None:
        for operand in (node.left, node.right):
            if _is_payload_expr(operand):
                name = _terminal_name(
                    operand.value if isinstance(operand, ast.Subscript) else operand
                )
                self._report(
                    "HP701",
                    node,
                    f"byte concatenation builds a fresh buffer from payload "
                    f"'{name}' + ...; write into a preallocated bytearray or "
                    f"pass chunks separately",
                )
                return

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        # HP701: bytes() round-trips and b"".join on payloads
        if isinstance(func, ast.Name):
            if func.id == "bytes" and len(node.args) == 1 and _is_payload_expr(node.args[0]):
                self._report(
                    "HP701",
                    node,
                    f"bytes('{_terminal_name(node.args[0])}') round-trip copies "
                    f"the payload; keep the original buffer",
                )
            elif func.id in ("str", "repr") and node.args:
                self._report(
                    "HP703",
                    node,
                    f"{func.id}() stringification per packet; hoist it off the "
                    f"fast path",
                )
            elif func.id == "print":
                self._report(
                    "HP703",
                    node,
                    "print() on the per-packet path; route through telemetry "
                    "instead",
                )
            elif _is_capword_ctor(func.id):
                self._report(
                    "HP702",
                    node,
                    f"{func.id}(...) object allocated per packet; pool or reuse "
                    f"it at burst/session scope",
                )
        elif isinstance(func, ast.Attribute):
            if func.attr == "join" and isinstance(func.value, ast.Constant):
                sep = func.value.value
                if isinstance(sep, bytes):
                    self._report(
                        "HP701",
                        node,
                        "b''.join materializes a fresh payload buffer per packet",
                    )
                elif isinstance(sep, str):
                    self._report(
                        "HP703",
                        node,
                        "str join per packet; hoist it off the fast path",
                    )
            elif func.attr == "format" and isinstance(func.value, ast.Constant):
                self._report(
                    "HP703",
                    node,
                    "str.format() evaluated per packet; hoist it off the fast path",
                )
            elif (
                func.attr in _LOG_METHODS
                and _terminal_name(func.value) in _LOG_RECEIVERS
            ):
                self._report(
                    "HP703",
                    node,
                    f"logger .{func.attr}() on the per-packet path; log at "
                    f"burst boundaries or behind a flag",
                )
            elif _is_capword_ctor(func.attr):
                self._report(
                    "HP702",
                    node,
                    f"{func.attr}(...) object allocated per packet; pool or "
                    f"reuse it at burst/session scope",
                )
        # HP704: copy handed across a declared layer boundary
        callee = _terminal_name(func) if isinstance(func, (ast.Name, ast.Attribute)) else None
        if callee in HOT_BOUNDARIES:
            index, boundary = HOT_BOUNDARIES[callee]
            if index < len(node.args) and _is_copy_expr(node.args[index]):
                self._report(
                    "HP704",
                    node,
                    f"freshly-copied buffer handed by value across the "
                    f"{boundary} boundary ({callee}()); pass a memoryview of "
                    f"the existing buffer instead",
                )

    # -- HP705: buffer lifetimes --------------------------------------
    def _collect_buffer_lifetimes(self) -> None:
        """First pass: view bindings and local-buffer mutations."""
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                view_of = self._memoryview_base(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name) and view_of is not None:
                        base_desc, reused = view_of
                        self.views[target.id] = base_desc
                        self.view_base_reused[target.id] = reused
                # buffer mutation: buf[...] = x
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        self.mutated_locals.add(target.value.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                self.mutated_locals.add(node.target.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATING_METHODS and isinstance(
                    node.func.value, ast.Name
                ):
                    self.mutated_locals.add(node.func.value.id)

    def _memoryview_base(self, value: ast.expr) -> Optional[Tuple[str, bool]]:
        """(base description, base-is-reused) when ``value`` is a view."""
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
            name = value.value.id
            if name in self.views:
                return (self.views[name], self.view_base_reused[name])
        return None

    def _view_names_in(self, node: ast.expr) -> List[str]:
        return [
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id in self.views
        ]

    def _escape_reason(self, node: ast.AST) -> Optional[Tuple[str, ast.expr]]:
        """('returned'|'stored', value expr) when ``node`` leaks a view."""
        if isinstance(node, ast.Return) and node.value is not None:
            return ("returned", node.value)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
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

    def _check_view_escape(self, node: ast.AST) -> None:
        reason = self._escape_reason(node)
        if reason is None:
            return
        verb, value = reason
        for name in self._view_names_in(value):
            base = self.views[name]
            if self.view_base_reused.get(name) or base in self.mutated_locals:
                self._report(
                    "HP705",
                    node,
                    f"memoryview '{name}' over reused buffer '{base}' is "
                    f"{verb} past the buffer's next reuse; copy the bytes out "
                    f"or scope the view to this burst",
                )

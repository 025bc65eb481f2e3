"""Finding, severity and waiver model shared by every checker.

A finding is silenced in one of three ways, all matched by the code in
this module:

* an inline comment on the finding's line — ``# endbox-lint: ignore``
  (every rule), ``ignore[EB102,DET401]``, ``declassify(TF505)`` (taint)
  or ``shared(SS601)`` (ownership); a ``TF5xx``-style token names a
  whole rule family;
* an entry of a code-reviewed registry (``secrets.DECLASSIFICATIONS``,
  ``ownergraph.OWNERSHIP``);
* an entry of the committed baseline file.

Registry and baseline entries are both :class:`Waiver` records.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Optional


class Severity(enum.Enum):
    """How bad a finding is; orders so ``ERROR > WARNING > INFO``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


@dataclass
class Finding:
    """One rule violation at one location.

    ``path`` is repo-relative where possible (stable across machines, so
    baseline files can be committed); ``symbol`` names the enclosing
    function/class when the checker knows it, which keeps baseline
    matching robust against line drift.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    col: int = 0
    symbol: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def location(self) -> str:
        """``path:line:col`` (what text reports print)."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        data: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.symbol:
            data["symbol"] = self.symbol
        if self.extra:
            data["extra"] = self.extra
        return data

    def sort_key(self):
        """Stable report order: by path, then line, then rule."""
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Waiver:
    """One reviewed suppression, with the justification for it.

    Matching is line-number-free so entries survive unrelated edits:
    ``rule`` exact, ``path`` suffix (``/``-normalized) and ``contains``
    a message substring.  At least one of ``rule``/``path`` is required.
    """

    rule: Optional[str] = None
    path: Optional[str] = None
    contains: Optional[str] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.rule is None and self.path is None:
            raise ValueError("a waiver needs at least one of 'rule'/'path'")

    def matches(self, finding: Finding) -> bool:
        """True when this entry suppresses ``finding``."""
        if self.rule is not None and finding.rule != self.rule:
            return False
        if self.path is not None:
            normalized = finding.path.replace("\\", "/")
            wanted = self.path.replace("\\", "/")
            if normalized != wanted and not normalized.endswith("/" + wanted.lstrip("/")):
                return False
        return self.contains is None or self.contains in finding.message

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready representation (omits unset fields)."""
        data = {}
        for key in ("rule", "path", "contains", "note"):
            if getattr(self, key):
                data[key] = getattr(self, key)
        return data


def first_match(waivers: Iterable[Waiver], finding: Finding) -> Optional[Waiver]:
    """The first entry of ``waivers`` suppressing ``finding``, or None."""
    return next((waiver for waiver in waivers if waiver.matches(finding)), None)


#: inline comment: ``# endbox-lint: VERB`` optionally followed by a rule
#: list in brackets or parentheses
_INLINE_RE = re.compile(
    r"#\s*endbox-lint:\s*(?P<verb>ignore|declassify|shared)"
    r"(?:\[(?P<bracketed>[\w\s,]+)\]|\((?P<parenthesized>[\w\s,]+)\))?"
)


def inline_rules(line: str, verb: str) -> Optional[FrozenSet[str]]:
    """Rule tokens an inline ``# endbox-lint: VERB(...)`` comment names.

    None when ``line`` carries no such comment.  Only ``ignore`` may
    stand bare, meaning every rule (the empty set); ``declassify`` and
    ``shared`` must list the rules they waive.
    """
    for match in _INLINE_RE.finditer(line):
        listed = match.group("bracketed") or match.group("parenthesized") or ""
        tokens = frozenset(rule.strip() for rule in listed.split(",") if rule.strip())
        if match.group("verb") == verb and (tokens or verb == "ignore"):
            return tokens
    return None


def names_rule(tokens: FrozenSet[str], rule: str) -> bool:
    """True when inline ``tokens`` cover ``rule``.

    The empty set (a bare ``ignore``) covers everything; ``TF5xx``
    covers every rule id starting ``TF5``.
    """
    return not tokens or any(
        token == rule or (token.endswith("xx") and rule.startswith(token[:-2]))
        for token in tokens
    )

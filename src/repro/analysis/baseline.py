"""Baseline suppressions: adopt the linter without fixing history first.

A baseline file is a JSON document of :class:`~repro.analysis.findings.Waiver`
entries, each suppressing findings by rule and/or file.  Every entry
carries a ``note`` explaining *why* the violation is acceptable — a
baseline without justification is just a muted alarm.  Format::

    {
      "version": 1,
      "entries": [
        {"rule": "EB103", "path": "src/repro/core/endbox_client.py",
         "note": "host half reads its own cost model back"},
        {"rule": "DET402", "note": "whole rule accepted for now"},
        {"path": "src/repro/attacks/iago.py",
         "contains": "register_ocall", "note": "attack registers bait"}
      ]
    }

Matching is deliberately line-number-free so baselines survive
unrelated edits: an entry matches on rule (exact), path (suffix match,
``/``-normalized) and optional ``contains`` (message substring).  At
least one of ``rule``/``path`` is required.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Set

from repro.analysis.findings import Finding, Waiver, first_match

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "lint-baseline.json"


class BaselineError(ValueError):
    """Malformed baseline file."""


class Baseline:
    """A set of suppression entries, with hit tracking for staleness."""

    def __init__(self, entries: Optional[Iterable[Waiver]] = None) -> None:
        self.entries: List[Waiver] = list(entries or [])
        #: entries that suppressed at least one finding this run
        self._hit: Set[Waiver] = set()

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Parse a baseline file; raises BaselineError when malformed."""
        try:
            document = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise BaselineError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(document, dict) or "entries" not in document:
            raise BaselineError(f"{path}: expected an object with an 'entries' list")
        entries = []
        seen = set()
        for raw in document["entries"]:
            if not isinstance(raw, dict):
                raise BaselineError(f"{path}: entry is not an object: {raw!r}")
            try:
                entry = Waiver(
                    rule=raw.get("rule"),
                    path=raw.get("path"),
                    contains=raw.get("contains"),
                    note=raw.get("note", ""),
                )
            except ValueError as exc:
                raise BaselineError(f"{path}: {exc}: {raw!r}") from exc
            # duplicates would shadow each other's hit tracking (the
            # second copy always reads as unused), so keep the first
            # occurrence only and tell the user to clean the file up
            key = (entry.rule, entry.path, entry.contains)
            if key in seen:
                print(
                    f"endbox-lint: warning: {path}: duplicate baseline entry "
                    f"(rule={entry.rule!r}, path={entry.path!r}, "
                    f"contains={entry.contains!r}) ignored",
                    file=sys.stderr,
                )
                continue
            seen.add(key)
            entries.append(entry)
        return cls(entries)

    def save(self, path: Path) -> None:
        """Write the baseline as formatted JSON."""
        document = {
            "version": BASELINE_VERSION,
            "entries": [entry.to_dict() for entry in self.entries],
        }
        Path(path).write_text(json.dumps(document, indent=2) + "\n")

    # ------------------------------------------------------------------
    def suppresses(self, finding: Finding) -> bool:
        """True (and counts the hit) when any entry matches."""
        entry = first_match(self.entries, finding)
        if entry is None:
            return False
        self._hit.add(entry)
        return True

    def unused_entries(self) -> List[Waiver]:
        """Entries that matched nothing this run (candidates for removal)."""
        return [entry for entry in self.entries if entry not in self._hit]

    @classmethod
    def from_findings(cls, findings: Iterable[Finding], note: str = "baselined") -> "Baseline":
        """Build a baseline that suppresses exactly these findings."""
        seen = set()
        entries = []
        for finding in findings:
            key = (finding.rule, finding.path)
            if key in seen:
                continue
            seen.add(key)
            entries.append(Waiver(rule=finding.rule, path=finding.path, note=note))
        return cls(entries)

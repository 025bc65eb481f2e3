"""HP-family tests: the family-wide checks for the view-lifetime rule.

HP705 (a ``memoryview`` over a reused or mutated buffer escaping by
return or store) is the one HP rule left, and it runs inside the
ownership pass; its units and fixtures live in ``test_ownership.py``.
This module keeps the two checks that span the whole family:

* the shipped tree has no unbaselined HP finding;
* the fixture corpus under ``tests/fixtures/ownership/`` covers every
  HP rule that any pass registers.
"""

import re
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.baseline import Baseline
from repro.analysis.checkers import all_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "ownership"

#: the trees the shipped-tree checks scan (mirrors the Makefile)
TREES = [SRC] + [
    REPO_ROOT / name for name in ("benchmarks", "examples") if (REPO_ROOT / name).is_dir()
]


def hp_rule_ids(rules):
    return {rule for rule in rules if rule.startswith("HP")}


def test_tree_has_no_unbaselined_hotpath_findings():
    baseline_file = REPO_ROOT / "lint-baseline.json"
    baseline = Baseline.load(baseline_file) if baseline_file.is_file() else None
    report = analyze_paths(TREES, baseline=baseline)
    hot = [f for f in report.findings if f.rule.startswith("HP")]
    assert not hot, "\n".join(f"{f.location()}: {f.rule}: {f.message}" for f in hot)


def test_fixture_corpus_covers_every_hp_rule():
    covered = set()
    for path in sorted(FIXTURES.glob("*.py")):
        expect = re.search(r"^# expect: (\S+)$", path.read_text(), re.M).group(1)
        if expect != "none":
            covered.update(hp_rule_ids(expect.split(",")))
    assert covered == hp_rule_ids(all_rules()) == {"HP705"}

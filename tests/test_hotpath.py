"""Hot-path hygiene (HP7xx) tests: rule units, fixtures, CLI, cache.

Mirrors the ownership-test layering:

* direct :func:`analyze_source` units for each HP rule and for the hot
  reachability rules (seeds, bound-method edges, constructor pruning,
  generic-name fallback);
* the fixture corpus under ``tests/fixtures/hotpath/`` — every file
  declares its module name and expected rule set in header comments;
* whole-tree checks: zero unbaselined HP findings, every HOT_ALLOWANCES
  entry exercised (an allowance matching nothing is stale);
* subprocess CLI tests for the ``--rules HP`` family filter, SARIF
  output (``--format`` and ``--sarif-out``), the ``--budget`` latency
  gate and the incremental lint cache.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.baseline import Baseline
from repro.analysis.cache import LintCache
from repro.analysis.checkers import default_checkers
from repro.analysis.checkers.hotpath import HotPathChecker
from repro.analysis.findings import Severity
from repro.analysis.hotgraph import HOT_ALLOWANCES, HP_RULES, hotpath_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "hotpath"

#: the trees the shipped-tree checks scan (mirrors the Makefile)
TREES = [SRC] + [
    REPO_ROOT / name for name in ("benchmarks", "examples") if (REPO_ROOT / name).is_dir()
]


def hp_findings(source, module, path="<memory>"):
    return analyze_source(source, module=module, checkers=[HotPathChecker()], path=path)


def hp_rules(source, module, path="<memory>"):
    return sorted({finding.rule for finding in hp_findings(source, module, path)})


# ----------------------------------------------------------------------
# the tree itself stays clean (modulo the committed baseline)
# ----------------------------------------------------------------------
def test_tree_has_no_unbaselined_hotpath_findings():
    baseline_file = REPO_ROOT / "lint-baseline.json"
    baseline = Baseline.load(baseline_file) if baseline_file.is_file() else None
    report = analyze_paths(TREES, baseline=baseline)
    hot = [f for f in report.findings if f.rule.startswith("HP")]
    assert not hot, "\n".join(f"{f.location()}: {f.rule}: {f.message}" for f in hot)


def test_every_hot_allowance_is_exercised_on_the_tree():
    # each HOT_ALLOWANCES entry must match at least one raw finding —
    # otherwise the allowance is stale and should be removed.  Deleting
    # an entry therefore fails here (its note disappears) AND in
    # test_tree_has_no_unbaselined_hotpath_findings (its findings come
    # back; the baseline is written to not shadow them).
    checker = HotPathChecker()
    analyze_paths(TREES, checkers=[checker])
    matched_notes = {note for _finding, note in checker.waived}
    for entry in HOT_ALLOWANCES:
        assert entry.note, "a justification is mandatory"
        assert entry.note in matched_notes, (
            f"stale HOT_ALLOWANCES entry: rule={entry.rule} path={entry.path} "
            f"contains={entry.contains!r}"
        )


def test_known_required_copies_are_waived_not_reported():
    checker = HotPathChecker()
    analyze_paths(TREES, checkers=[checker])
    waived = {(f.rule, f.path.rsplit("/", 1)[-1]) for f, _ in checker.waived}
    # MAC tag append in DataChannel.protect
    assert ("HP701", "channel.py") in waived
    # reassembly re-parse across the parse_ipv4 boundary
    assert ("HP704", "stack.py") in waived


def test_hp705_is_an_error_other_rules_warn():
    source = '''
class Router:
    def process(self, ip_packet):
        view = memoryview(self._scratch)
        self.kept = view
        label = f"pkt-{ip_packet}"
        return label
'''
    findings = hp_findings(source, "repro.click.router")
    by_rule = {f.rule: f for f in findings}
    assert by_rule["HP705"].severity is Severity.ERROR
    assert by_rule["HP703"].severity is Severity.WARNING


# ----------------------------------------------------------------------
# hot reachability
# ----------------------------------------------------------------------
def test_cold_functions_are_not_scanned():
    source = '''
class Router:
    def configure(self, payload):
        return payload[4:] + bytes(payload)
'''
    assert hp_rules(source, "repro.click.router") == []


def test_non_seed_module_is_cold():
    source = '''
class Router:
    def process(self, payload):
        return payload[4:]
'''
    # same shape, but the module is not one the seed table names
    assert hp_rules(source, "repro.core.deployment") == []


def test_constructor_bodies_are_not_traversed():
    source = '''
class Expensive:
    def __init__(self, payload):
        self.copy = payload[:10]

class Router:
    def process(self, ip_packet):
        return Expensive(ip_packet)
'''
    # the per-packet construction is flagged at the call site (HP702);
    # the __init__ body's slice is NOT reported
    assert hp_rules(source, "repro.click.router") == ["HP702"]


def test_bound_method_assignment_pulls_target_into_hot_set():
    source = '''
class Sink:
    def consume(self, payload):
        self.tail = payload[4:]

class Router:
    def process(self, ip_packet):
        consume = self.sink.consume
        consume(ip_packet)
'''
    assert hp_rules(source, "repro.click.router") == ["HP701"]


def test_regex_verbs_do_not_resolve_to_lifecycle_methods():
    source = '''
import re

PAT = re.compile(rb"x")

class Router:
    def process(self, ip_packet):
        m = PAT.search(ip_packet)
        return m.start() if m else 0

    def start(self):
        self.boot_config = {"address": "10.0.0.1"}
'''
    # m.start() must not drag Router.start (session setup) into the hot
    # set via the bare-name fallback
    assert hp_rules(source, "repro.click.router") == []


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------
def test_inline_waiver_suppresses_exact_rule():
    source = '''
class Router:
    def process(self, payload):
        return payload[4:]  # endbox-lint: hotpath(HP701)
'''
    assert hp_rules(source, "repro.click.router") == []


def test_inline_family_waiver():
    source = '''
class Router:
    def process(self, payload):
        return payload[4:]  # endbox-lint: hotpath(HP7xx)
'''
    assert hp_rules(source, "repro.click.router") == []


def test_inline_waiver_for_other_rule_does_not_apply():
    source = '''
class Router:
    def process(self, payload):
        return payload[4:]  # endbox-lint: hotpath(HP703)
'''
    assert hp_rules(source, "repro.click.router") == ["HP701"]


def test_hotpath_rules_parser():
    assert hotpath_rules("x = 1  # endbox-lint: hotpath(HP701)") == {"HP701"}
    assert hotpath_rules("x = 1  # endbox-lint: hotpath(HP701, HP704)") == {
        "HP701",
        "HP704",
    }
    assert hotpath_rules("x = 1  # plain comment") is None


# ----------------------------------------------------------------------
# per-rule negatives the fixtures do not cover
# ----------------------------------------------------------------------
def test_hp701_ignores_non_payload_names():
    source = '''
class Router:
    def process(self, ip_packet):
        window = self.offsets[4:]
        return window
'''
    assert hp_rules(source, "repro.click.router") == []


def test_hp702_ignores_exception_constructors_outside_raise():
    source = '''
class Router:
    def process(self, ip_packet):
        self.last_error = ValueError("x")
        return ip_packet
'''
    assert hp_rules(source, "repro.click.router") == []


def test_hp705_fresh_local_view_is_clean():
    source = '''
class Router:
    def process(self, ip_packet):
        local = bytes(self.header)
        view = memoryview(local)
        return view
'''
    assert hp_rules(source, "repro.click.router") == []


def test_hp705_view_over_mutated_local_escaping():
    source = '''
class Router:
    def process(self, ip_packet):
        scratch = bytearray(64)
        view = memoryview(scratch)
        self.kept = view
        scratch[0:4] = ip_packet
        return True
'''
    assert hp_rules(source, "repro.click.router") == ["HP705"]


# ----------------------------------------------------------------------
# the fixture corpus
# ----------------------------------------------------------------------
def fixture_files():
    return sorted(FIXTURES.glob("*.py"))


def read_fixture(path):
    source = path.read_text()
    module = re.search(r"^# module: (\S+)$", source, re.M).group(1)
    expect = re.search(r"^# expect: (\S+)$", source, re.M).group(1)
    expected = [] if expect == "none" else sorted(expect.split(","))
    return source, module, expected


def test_fixture_corpus_is_not_empty():
    names = {path.name for path in fixture_files()}
    assert len(names) >= 12
    assert any(name.startswith("hot_") for name in names)
    assert any(name.startswith("clean_") for name in names)


@pytest.mark.parametrize("path", fixture_files(), ids=lambda p: p.stem)
def test_fixture(path):
    source, module, expected = read_fixture(path)
    assert hp_rules(source, module, path=str(path)) == expected


def test_fixture_corpus_covers_every_hp_rule():
    covered = set()
    for path in fixture_files():
        _source, _module, expected = read_fixture(path)
        covered.update(expected)
    assert covered == set(HP_RULES)


# ----------------------------------------------------------------------
# CLI: --rules HP filter, SARIF, --sarif-out, --budget
# ----------------------------------------------------------------------
def run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def write_hot_tree(root):
    pkg = root / "repro" / "click"
    pkg.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "router.py").write_text(
        '"""Hot."""\n\n'
        "class Router:\n"
        "    def process(self, payload):\n"
        "        return payload[4:]\n"
    )
    return root


def test_cli_hp_family_filter_and_exit_code(tmp_path):
    tree = write_hot_tree(tmp_path)
    result = run_cli(
        str(tree), "--format=json", "--no-baseline", "--no-cache", "--rules", "HP"
    )
    assert result.returncode == 1, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert [finding["rule"] for finding in payload["findings"]] == ["HP701"]


def test_cli_other_family_filters_hp_out(tmp_path):
    tree = write_hot_tree(tmp_path)
    result = run_cli(
        str(tree), "--format=json", "--no-baseline", "--no-cache", "--rules", "SS"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["findings"] == []


def test_cli_lists_hp_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in HP_RULES:
        assert rule in result.stdout


def test_cli_sarif_covers_hp_rules(tmp_path):
    tree = write_hot_tree(tmp_path)
    result = run_cli(str(tree), "--format=sarif", "--no-baseline", "--no-cache")
    assert result.returncode == 1
    sarif = json.loads(result.stdout)
    run = sarif["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "HP701" in rule_ids
    assert any(entry["ruleId"] == "HP701" for entry in run["results"])


def test_cli_sarif_out_writes_report_file(tmp_path):
    tree = write_hot_tree(tmp_path / "tree")
    out = tmp_path / "lint.sarif"
    result = run_cli(
        str(tree), "--no-baseline", "--no-cache", f"--sarif-out={out}",
        cwd=tmp_path,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    sarif = json.loads(out.read_text())
    assert any(
        entry["ruleId"] == "HP701" for entry in sarif["runs"][0]["results"]
    )


def test_cli_budget_exceeded_exits_3(tmp_path):
    tree = write_hot_tree(tmp_path)
    result = run_cli(str(tree), "--no-baseline", "--no-cache", "--budget", "0")
    assert result.returncode == 3, result.stdout + result.stderr
    assert "budget exceeded" in result.stderr


def test_cli_budget_met_keeps_finding_exit_code(tmp_path):
    tree = write_hot_tree(tmp_path)
    result = run_cli(str(tree), "--no-baseline", "--no-cache", "--budget", "600")
    assert result.returncode == 1


# ----------------------------------------------------------------------
# the incremental cache
# ----------------------------------------------------------------------
def test_cache_hit_and_miss_on_hot_edit(tmp_path):
    tree = write_hot_tree(tmp_path)
    cache_dir = tmp_path / "cache"
    cold = analyze_paths([tree], cache=LintCache(cache_dir))
    assert [f.rule for f in cold.findings] == ["HP701"]
    warm = analyze_paths([tree], cache=LintCache(cache_dir))
    assert warm.from_cache
    assert warm.to_dict() == cold.to_dict()
    # fix the copy: the hotpath pass is program-scope, so any tree edit
    # must re-run it rather than serving the stale report
    (tree / "repro" / "click" / "router.py").write_text(
        '"""Hot."""\n\n'
        "class Router:\n"
        "    def process(self, payload):\n"
        "        return payload\n"
    )
    fixed = analyze_paths([tree], cache=LintCache(cache_dir))
    assert not fixed.from_cache
    assert fixed.findings == []


def test_cache_key_includes_python_version(monkeypatch, tmp_path):
    cache = LintCache(tmp_path)
    checkers = default_checkers()
    files = [("a.py", "deadbeef")]
    before_tree = cache.tree_key(files, checkers, "digest")
    before_module = cache.module_key("a.py", "deadbeef")
    monkeypatch.setattr("repro.analysis.cache._PY_VERSION", "py9.99")
    assert cache.tree_key(files, checkers, "digest") != before_tree
    assert cache.module_key("a.py", "deadbeef") != before_module

"""Ownership-pass tests (SS6xx, HP705): rule units, fixtures, CLI, waivers.

Mirrors the taint-test layering:

* direct :func:`analyze_source` units for each SS rule and for the
  sim-driven reachability boundary, and for the HP705 view-escape rule,
  which runs over every function;
* the fixture corpus under ``tests/fixtures/ownership/`` — every file
  declares its module name and expected rule set in header comments;
* whole-tree checks: zero unbaselined findings, every OWNERSHIP waiver
  exercised (a waiver matching nothing is stale);
* subprocess CLI tests for the ``--rules SS`` family filter, SARIF
  coverage and exit codes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source, inline_rules
from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import CallGraph
from repro.analysis.checkers.ownership import OwnershipChecker
from repro.analysis.engine import Analyzer
from repro.analysis.findings import Severity
from repro.analysis.ownergraph import OWNERSHIP, OWNERSHIP_RULES, OwnershipAnalysis

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "ownership"


def ss_rules(source, module, path="<memory>"):
    findings = analyze_source(
        source, module=module, checkers=[OwnershipChecker()], path=path
    )
    return sorted({finding.rule for finding in findings})


# ----------------------------------------------------------------------
# the tree itself stays clean
# ----------------------------------------------------------------------
def test_tree_has_no_unbaselined_ownership_findings():
    report = analyze_paths([SRC])
    shared = [f for f in report.findings if f.rule in OWNERSHIP_RULES]
    assert not shared, "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in shared
    )


def test_every_ownership_waiver_is_exercised_on_the_tree():
    # each OWNERSHIP registry entry must match at least one raw finding
    # — otherwise the waiver is stale and should be removed
    checker = OwnershipChecker()
    analyze_paths([SRC], checkers=[checker])
    matched_notes = {note for _finding, note in checker.waived}
    for entry in OWNERSHIP:
        assert entry.note in matched_notes, (
            f"stale OWNERSHIP waiver: rule={entry.rule} path={entry.path} "
            f"contains={entry.contains!r}"
        )
        assert entry.note  # a justification is mandatory


def test_packet_path_callbacks_are_sim_driven_on_the_tree():
    # a packet crosses the simulator by heap callbacks scheduled through
    # Simulator.schedule and by handlers registered on sockets and TUN
    # devices; the SS rules check only what the pass sees as sim-driven,
    # so each hand-off must stay in that set
    modules = [Analyzer.load_module(path) for path in Analyzer.collect_files([SRC])]
    analysis = OwnershipAnalysis(CallGraph(modules))
    reached = analysis.sim_driven()
    driven = {fn.dotted for fn in analysis.functions if id(fn) in reached}
    for name in (
        "repro.netsim.link._Serializer.start",
        "repro.netsim.link._Serializer.transmit_end",
        "repro.netsim.interface.Interface.deliver",
        "repro.vpn.openvpn.OpenVpnServer._on_datagram",
        "repro.vpn.openvpn.OpenVpnServer._on_tun_packet",
        "repro.vpn.openvpn.OpenVpnClient._on_datagram",
        "repro.vpn.openvpn.OpenVpnClient._on_tun_packet",
        "repro.sim.resources.CpuCores._grant",
        "repro.sim.resources.CpuCores._end",
    ):
        assert name in driven, name


# ----------------------------------------------------------------------
# per-rule units
# ----------------------------------------------------------------------
SS601_SNIPPET = '''
_LOG = []

def on_event(item):
    _LOG.append(item)

def install(sim):
    sim.schedule(0.0, on_event)
'''


def test_ss601_module_global_mutated_on_sim_path():
    assert ss_rules(SS601_SNIPPET, "repro.netsim.snippet") == ["SS601"]


def test_ss601_requires_sim_reachability():
    source = '''
_LOG = []

def on_event(item):
    _LOG.append(item)
'''
    assert ss_rules(source, "repro.netsim.snippet") == []


def test_ss602_sim_owned_object_escapes_to_global():
    source = '''
_WORLDS = {}

def register(sim, name):
    _WORLDS[name] = sim

def install(sim):
    sim.schedule(0.0, lambda: register(sim, "a"))
'''
    assert ss_rules(source, "repro.netsim.snippet") == ["SS602"]


def test_ss602_global_rebind_of_simulator():
    source = '''
_CURRENT_WORLD = None

def adopt(sim):
    global _CURRENT_WORLD
    _CURRENT_WORLD = sim

def install(sim):
    sim.schedule(0.0, lambda: adopt(sim))
'''
    assert ss_rules(source, "repro.netsim.snippet") == ["SS602"]


def test_ss603_cache_named_global():
    source = '''
_SCHEDULE_CACHE = {}

def lookup(key):
    hit = _SCHEDULE_CACHE.get(key)
    if hit is None:
        hit = len(key)
        _SCHEDULE_CACHE[key] = hit
    return hit

def install(sim):
    sim.schedule(0.0, lambda: lookup("k"))
'''
    assert ss_rules(source, "repro.netsim.snippet") == ["SS603"]


def test_ss604_class_attribute_mutated_from_method():
    source = '''
class Tracker:
    rows = []

    def note(self, row):
        self.rows.append(row)

def install(sim):
    tracker = Tracker()
    sim.schedule(0.0, tracker.note)
'''
    assert ss_rules(source, "repro.netsim.snippet") == ["SS604"]


def test_ss604_instance_shadowed_attribute_is_clean():
    source = '''
class Tracker:
    rows = []

    def __init__(self):
        self.rows = []

    def note(self, row):
        self.rows.append(row)

def install(sim):
    tracker = Tracker()
    sim.schedule(0.0, tracker.note)
'''
    assert ss_rules(source, "repro.netsim.snippet") == []


def test_ss605_lazy_init_of_global():
    source = '''
_TABLE = None

def table():
    global _TABLE
    if _TABLE is None:
        _TABLE = {"a": 1}
    return _TABLE

def install(sim):
    sim.schedule(0.0, lambda: table())
'''
    assert ss_rules(source, "repro.netsim.snippet") == ["SS605"]


def test_inline_shared_waiver_suppresses_exact_rule():
    source = '''
_LOG = []

def on_event(item):
    _LOG.append(item)  # endbox-lint: shared(SS601)

def install(sim):
    sim.schedule(0.0, on_event)
'''
    assert ss_rules(source, "repro.netsim.snippet") == []


def test_inline_shared_family_waiver():
    source = '''
_SCHEDULE_CACHE = {}

def warm(key):
    _SCHEDULE_CACHE[key] = 1  # endbox-lint: shared(SS6xx)

def install(sim):
    sim.schedule(0.0, lambda: warm("k"))
'''
    assert ss_rules(source, "repro.netsim.snippet") == []


def test_shared_rules_parser():
    assert inline_rules("x = 1  # endbox-lint: shared(SS601)", "shared") == {"SS601"}
    assert inline_rules("x = 1  # endbox-lint: shared(SS601, SS603)", "shared") == {
        "SS601",
        "SS603",
    }
    assert inline_rules("x = 1  # plain comment", "shared") is None
    # shared must name its rules, and other verbs are not read as shared
    assert inline_rules("x = 1  # endbox-lint: shared", "shared") is None
    assert inline_rules("x = 1  # endbox-lint: declassify(SS601)", "shared") is None


def test_non_repro_modules_are_ignored():
    assert ss_rules(SS601_SNIPPET, "thirdparty.helper") == []


# ----------------------------------------------------------------------
# HP705: views over reused buffers, in every function
# ----------------------------------------------------------------------
def test_hp705_is_an_error():
    source = '''
class Router:
    def process(self, ip_packet):
        view = memoryview(self._scratch)
        self.kept = view
        return ip_packet
'''
    findings = analyze_source(
        source, module="repro.click.router", checkers=[OwnershipChecker()]
    )
    assert [(f.rule, f.severity) for f in findings] == [("HP705", Severity.ERROR)]


def test_hp705_fresh_local_view_is_clean():
    source = '''
class Router:
    def process(self, ip_packet):
        local = bytes(self.header)
        view = memoryview(local)
        return view
'''
    assert ss_rules(source, "repro.click.router") == []


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
    assert ss_rules(source, "repro.click.router") == ["HP705"]


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
    assert len(names) >= 9
    assert any(name.startswith("leaky_") for name in names)
    assert any(name.startswith("clean_") for name in names)


@pytest.mark.parametrize("path", fixture_files(), ids=lambda p: p.stem)
def test_fixture(path):
    source, module, expected = read_fixture(path)
    assert ss_rules(source, module, path=str(path)) == expected


def test_fixture_corpus_covers_every_ss_rule():
    covered = set()
    for path in fixture_files():
        _source, _module, expected = read_fixture(path)
        covered.update(expected)
    assert covered == set(OWNERSHIP_RULES)


# ----------------------------------------------------------------------
# CLI: --rules SS family filter, SARIF, exit codes
# ----------------------------------------------------------------------
def run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def write_shared_tree(root):
    pkg = root / "repro" / "netsim"
    pkg.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "sharedstate.py").write_text('"""Shared."""\n' + SS601_SNIPPET)
    return root


def test_cli_ss_family_filter_and_exit_code(tmp_path):
    tree = write_shared_tree(tmp_path)
    result = run_cli(
        str(tree), "--format=json", "--no-baseline", "--rules", "SS"
    )
    assert result.returncode == 1, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert [finding["rule"] for finding in payload["findings"]] == ["SS601"]


def test_cli_exact_rule_still_matches(tmp_path):
    tree = write_shared_tree(tmp_path)
    result = run_cli(
        str(tree), "--format=json", "--no-baseline", "--rules", "SS601"
    )
    assert result.returncode == 1
    assert json.loads(result.stdout)["findings"]


def test_cli_other_family_filters_it_out(tmp_path):
    tree = write_shared_tree(tmp_path)
    result = run_cli(
        str(tree), "--format=json", "--no-baseline", "--rules", "TF"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["findings"] == []


def test_cli_unknown_family_is_a_usage_error(tmp_path):
    tree = write_shared_tree(tmp_path)
    result = run_cli(str(tree), "--no-baseline", "--rules", "ZZ")
    assert result.returncode == 2


def test_cli_lists_ss_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in OWNERSHIP_RULES:
        assert rule in result.stdout


def test_cli_sarif_covers_ss_rules(tmp_path):
    tree = write_shared_tree(tmp_path)
    result = run_cli(str(tree), "--format=sarif", "--no-baseline")
    assert result.returncode == 1
    sarif = json.loads(result.stdout)
    run = sarif["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "SS601" in rule_ids
    results = run["results"]
    assert any(entry["ruleId"] == "SS601" for entry in results)


def test_cli_leaves_no_files_in_the_working_directory(tmp_path):
    # run from a directory that does NOT contain the fixture `repro`
    # package (cwd shadows the real one on sys.path under `python -m`)
    tree = write_shared_tree(tmp_path / "tree")
    workdir = tmp_path / "wk"
    workdir.mkdir()
    result = run_cli(str(tree), "--no-baseline", cwd=workdir)
    assert result.returncode == 1, result.stdout + result.stderr
    assert list(workdir.iterdir()) == []


# ----------------------------------------------------------------------
# walker pruning and baseline dedupe
# ----------------------------------------------------------------------
def test_collect_files_prunes_non_source_trees(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "good.py").write_text("x = 1\n")
    junk_dirs = [
        tmp_path / "__pycache__",
        tmp_path / "build",
        tmp_path / ".mypy_cache",
        tmp_path / "repro.egg-info",
    ]
    for junk in junk_dirs:
        junk.mkdir()
        (junk / "junk.py").write_text("this is ( not python")
    files = Analyzer.collect_files([tmp_path])
    names = {path.name for path in files}
    assert names == {"__init__.py", "good.py"}
    # and therefore no GEN001 parse errors from the junk
    report = analyze_paths([tmp_path])
    assert all(f.rule != "GEN001" for f in report.findings)


def test_baseline_load_dedupes_and_warns(tmp_path, capsys):
    baseline_file = tmp_path / "baseline.json"
    entry = {"rule": "SS601", "path": "a.py", "note": "x"}
    baseline_file.write_text(
        json.dumps({"version": 1, "entries": [entry, dict(entry)]})
    )
    baseline = Baseline.load(baseline_file)
    assert len(baseline.entries) == 1
    assert "duplicate baseline entry" in capsys.readouterr().err

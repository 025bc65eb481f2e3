"""Secret-flow (TF5xx) tests: rule units, the fixture corpus, CLI, SARIF.

Three layers:

* direct :func:`analyze_source` units for each rule, the sanitizer
  chain, interprocedural summaries and declassification;
* the fixture corpus under ``tests/fixtures/taint/`` — every file
  declares its module name and expected rule set in header comments and
  is checked as a known-leaky or known-clean snippet;
* subprocess CLI tests for exit codes, ``--rules TF…`` filtering, the
  baseline round-trip and ``--format=sarif`` schema shape.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source, inline_rules
from repro.analysis.checkers.taint import TaintChecker
from repro.analysis.dataflow import Summary
from repro.analysis.secrets import DECLASSIFICATIONS, TF_RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "taint"

LEAKY_OCALL = '''
def leak(gateway, key):
    gateway.ocall("telemetry", key)
'''


def taint_rules(source, module, path="<memory>"):
    findings = analyze_source(source, module=module, checkers=[TaintChecker()], path=path)
    return sorted({finding.rule for finding in findings})


# ----------------------------------------------------------------------
# the tree itself stays clean
# ----------------------------------------------------------------------
def test_tree_has_no_unbaselined_taint_findings():
    report = analyze_paths([SRC])
    taint = [f for f in report.findings if f.rule.startswith("TF")]
    assert not taint, "\n".join(f"{f.location()}: {f.rule}: {f.message}" for f in taint)


def test_keylog_declassification_is_exercised_on_the_tree():
    # the registry entry for the §III-D key-export path must actually
    # match a finding — otherwise it is stale and should be removed
    checker = TaintChecker()
    analyze_paths([SRC], checkers=[checker])
    assert any(
        finding.rule == "TF506" and "key_export" in finding.message
        for finding, _note in checker.declassified
    )


# ----------------------------------------------------------------------
# per-rule units
# ----------------------------------------------------------------------
def test_tf501_secret_into_ocall_argument():
    assert taint_rules(LEAKY_OCALL, "repro.sgx.snippet") == ["TF501"]


def test_tf501_ocall_name_string_is_not_a_payload():
    source = '''
def ping(gateway, key):
    gateway.ocall("heartbeat")
'''
    assert taint_rules(source, "repro.sgx.snippet") == []


def test_tf502_secret_into_print():
    source = '''
def debug(session):
    print(session.keys)
'''
    assert taint_rules(source, "repro.core.snippet") == ["TF502"]


def test_tf503_secret_in_exception_message():
    source = '''
def check(key):
    raise ValueError(f"bad key {key!r}")
'''
    assert taint_rules(source, "repro.crypto.snippet") == ["TF503"]


def test_tf503_length_in_exception_message_is_clean():
    source = '''
def check(key):
    raise ValueError(f"bad key length {len(key)}")
'''
    assert taint_rules(source, "repro.crypto.snippet") == []


def test_tf504_packet_payload_in_untrusted_module():
    source = '''
from repro.netsim.packet import UdpDatagram

def build(session):
    return UdpDatagram(src_port=1, dst_port=2, payload=session.keys.client_write)
'''
    assert taint_rules(source, "repro.core.snippet") == ["TF504"]


def test_tf504_not_raised_inside_the_enclave():
    # enclave-side code legitimately assembles plaintext packets; the
    # leak is building them *outside* (repro.vpn.channel is TRUSTED)
    source = '''
from repro.netsim.packet import UdpDatagram

def build(session):
    return UdpDatagram(src_port=1, dst_port=2, payload=session.keys.client_write)
'''
    assert taint_rules(source, "repro.vpn.channel.snippet") == []


def test_tf505_secret_into_json_artifact():
    source = '''
import json

def dump(keys):
    return json.dumps({"key": keys.client_write.hex()})
'''
    assert taint_rules(source, "repro.experiments.snippet") == ["TF505"]


def test_tf506_secret_into_export_hook():
    source = '''
class Lib:
    def __init__(self, key_export):
        self.key_export = key_export

    def done(self, keys):
        self.key_export(keys)
'''
    assert taint_rules(source, "repro.tlslib.snippet") == ["TF506"]


# ----------------------------------------------------------------------
# sources, sanitizers, propagation
# ----------------------------------------------------------------------
def test_hkdf_output_is_secret_despite_hmac_implementation():
    source = '''
from repro.crypto.hkdf import hkdf_expand

def derive_and_leak(prk):
    block = hkdf_expand(prk, b"label", 32)
    print(block)
'''
    assert taint_rules(source, "repro.core.snippet") == ["TF502"]


def test_mac_over_secret_is_clean():
    source = '''
from repro.crypto.hmac import hmac_sha256

def tag(gateway, key):
    gateway.ocall("audit", hmac_sha256(key, b"a", b"b"))
'''
    assert taint_rules(source, "repro.sgx.snippet") == []


def test_public_attribute_projection_is_clean():
    source = '''
def announce(identity_key):
    print(identity_key.public_bytes)
'''
    assert taint_rules(source, "repro.vpn.handshake.snippet") == []


def test_taint_propagates_through_containers_and_fstrings():
    source = '''
def collect(key):
    bundle = {"k": [key]}
    print(f"bundle: {bundle}")
'''
    assert taint_rules(source, "repro.crypto.snippet") == ["TF502"]


def test_attribute_store_learns_new_secret_names():
    source = '''
class Holder:
    def __init__(self, key):
        self.stashed_material = key

def show(holder):
    print(holder.stashed_material)
'''
    assert taint_rules(source, "repro.crypto.snippet") == ["TF502"]


def test_interprocedural_flow_reaches_sink_in_callee():
    source = '''
def emit(value):
    print(f"debug: {value}")

def report(key):
    emit(key)
'''
    findings = analyze_source(
        source, module="repro.crypto.snippet", checkers=[TaintChecker()]
    )
    assert [f.rule for f in findings] == ["TF502"]
    assert "emit" in findings[0].message  # the callee is named at the call site


def test_tuple_unpacking_does_not_smear_secrets():
    # reply is public, secrets is not: only the print of secrets fires
    source = '''
def handshake(key):
    return b"reply", key

def drive():
    reply, secret = handshake(b"\\x00" * 16)
    print(reply)

def drive_leak(key):
    reply, secret = handshake(key)
    print(secret)
'''
    findings = analyze_source(
        source, module="repro.vpn.handshake.snippet", checkers=[TaintChecker()]
    )
    assert len(findings) == 1
    assert findings[0].rule == "TF502"
    assert "secret" not in "" + findings[0].message.split("flows into")[1]


def test_fixpoint_that_never_settles_fails_the_run(monkeypatch):
    # summaries that never compare equal keep every round "changed": the
    # run must fail at the round bound instead of reporting from partial
    # summaries
    monkeypatch.setattr(Summary, "__eq__", lambda self, other: False)
    with pytest.raises(RuntimeError, match="did not converge"):
        taint_rules(LEAKY_OCALL, "repro.sgx.snippet")


def test_untrusted_parameters_are_not_seeded():
    # the parameter-name heuristic applies only inside the enclave:
    # host-side code handles ciphertext under the same names
    assert taint_rules("def f(key):\n    print(key)\n", "repro.attacks.snippet") == []


# ----------------------------------------------------------------------
# declassification
# ----------------------------------------------------------------------
def test_inline_declassify_suppresses_the_named_rule():
    source = '''
import json

def seal_blob(identity_key):
    return json.dumps({"k": identity_key.hex()})  # endbox-lint: declassify(TF505)
'''
    assert taint_rules(source, "repro.sgx.snippet") == []


def test_inline_declassify_family_wildcard():
    source = '''
def debug(key):
    print(key)  # endbox-lint: declassify(TF5xx)
'''
    assert taint_rules(source, "repro.crypto.snippet") == []


def test_inline_declassify_does_not_cover_other_rules():
    source = '''
def debug(gateway, key):
    gateway.ocall("x", key)  # endbox-lint: declassify(TF505)
'''
    assert taint_rules(source, "repro.sgx.snippet") == ["TF501"]


def test_declassified_findings_are_recorded_with_justification():
    source = '''
def debug(key):
    print(key)  # endbox-lint: declassify(TF502)
'''
    checker = TaintChecker()
    findings = analyze_source(source, module="repro.crypto.snippet", checkers=[checker])
    assert findings == []
    assert len(checker.declassified) == 1
    finding, note = checker.declassified[0]
    assert finding.rule == "TF502"
    assert note == "inline declassify annotation"


def test_registry_declassification_matches_by_path_and_content():
    source = '''
class Lib:
    def __init__(self, key_export):
        self.key_export = key_export

    def done(self, keys):
        self.key_export(keys)
'''
    checker = TaintChecker()
    findings = analyze_source(
        source,
        module="repro.tlslib.library",
        checkers=[checker],
        path="src/repro/tlslib/library.py",
    )
    assert findings == []
    assert len(checker.declassified) == 1
    assert "§III-D" in checker.declassified[0][1]


def test_declassify_comment_parser():
    assert inline_rules("x = 1  # endbox-lint: declassify(TF505)", "declassify") == {"TF505"}
    assert inline_rules("x  # endbox-lint: declassify(TF501, TF502)", "declassify") == {
        "TF501",
        "TF502",
    }
    assert inline_rules("x = 1  # endbox-lint: ignore[TF505]", "declassify") is None


def test_every_registry_declassification_names_a_tf_rule():
    for entry in DECLASSIFICATIONS:
        assert entry.rule in TF_RULES
        assert entry.note  # a justification is mandatory


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
    assert len(fixture_files()) >= 8
    names = {path.name for path in fixture_files()}
    assert any(name.startswith("leaky_") for name in names)
    assert any(name.startswith("clean_") for name in names)


@pytest.mark.parametrize("path", fixture_files(), ids=lambda p: p.stem)
def test_fixture(path):
    source, module, expected = read_fixture(path)
    assert taint_rules(source, module, path=str(path)) == expected


def test_fixture_corpus_covers_every_tf_rule_except_registry_only():
    covered = set()
    for path in fixture_files():
        _source, _module, expected = read_fixture(path)
        covered.update(expected)
    # TF506 is proven by leaky_export; everything else by its fixture
    assert covered >= {"TF501", "TF502", "TF503", "TF504", "TF505", "TF506"}


# ----------------------------------------------------------------------
# CLI: exit codes, --rules, baseline round-trip, SARIF
# ----------------------------------------------------------------------
def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def write_leaky_tree(tmp_path):
    pkg = tmp_path / "repro" / "sgx"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "leaky.py").write_text('"""Leaky."""\n' + LEAKY_OCALL)
    return tmp_path


def test_cli_tf_rules_filter_and_exit_code(tmp_path):
    tree = write_leaky_tree(tmp_path)
    result = run_cli(str(tree), "--format=json", "--no-baseline", "--rules", "TF501")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert [finding["rule"] for finding in payload["findings"]] == ["TF501"]


def test_cli_filtering_out_tf_rules_exits_zero(tmp_path):
    tree = write_leaky_tree(tmp_path)
    result = run_cli(str(tree), "--format=json", "--no-baseline", "--rules", "TF503")
    assert result.returncode == 0
    assert json.loads(result.stdout)["findings"] == []


def test_cli_lists_tf_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in TF_RULES:
        assert rule in result.stdout


def test_cli_baseline_round_trip_for_tf_family(tmp_path):
    tree = write_leaky_tree(tmp_path)
    baseline = tmp_path / "tf-baseline.json"
    wrote = run_cli(str(tree), "--no-baseline", "--write-baseline", str(baseline))
    assert wrote.returncode == 0
    entries = json.loads(baseline.read_text())["entries"]
    assert any(entry["rule"] == "TF501" for entry in entries)
    rerun = run_cli(str(tree), "--baseline", str(baseline), "--format=json")
    assert rerun.returncode == 0
    payload = json.loads(rerun.stdout)
    assert payload["summary"]["findings"] == 0
    assert payload["summary"]["baselined"] >= 1


def test_cli_sarif_schema_shape(tmp_path):
    tree = write_leaky_tree(tmp_path)
    result = run_cli(str(tree), "--format=sarif", "--no-baseline")
    assert result.returncode == 1  # findings still drive the exit code
    sarif = json.loads(result.stdout)
    assert sarif["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in sarif["$schema"]
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "endbox-lint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert set(TF_RULES) <= rule_ids
    assert all(rule["shortDescription"]["text"] for rule in driver["rules"])
    assert run["results"], "expected at least one result for the seeded leak"
    for result_obj in run["results"]:
        assert result_obj["ruleId"] in rule_ids
        assert result_obj["level"] in ("error", "warning", "note")
        assert result_obj["message"]["text"]
        (location,) = result_obj["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1
        assert location["physicalLocation"]["artifactLocation"]["uri"]
    assert any(r["ruleId"] == "TF501" for r in run["results"])


def test_cli_sarif_clean_tree_has_empty_results():
    result = run_cli(str(SRC), "--format=sarif")
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    sarif = json.loads(result.stdout)
    assert sarif["runs"][0]["results"] == []

"""endbox-lint tests: boundary, determinism, interface, Click-graph passes.

Each rule gets a dedicated injected-violation test via
:func:`repro.analysis.engine.analyze_source` (trust domains come from the
module name we pick), plus the meta-test that matters most: the shipped
tree itself must lint clean.  The generic CLI behaviour (SARIF output,
the ``--budget`` latency gate) and the one-call-graph-per-run contract
are tested here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Severity,
    TrustDomain,
    Waiver,
    analyze_paths,
    analyze_source,
    trust_domain,
)
from repro.analysis import callgraph, engine
from repro.analysis.baseline import BaselineError
from repro.analysis.checkers import all_rules, default_checkers
from repro.analysis.checkers.boundary import BoundaryChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.interface import InterfaceChecker
from repro.analysis.checkers.ownership import OwnershipChecker
from repro.analysis.checkers.taint import TaintChecker
from repro.click.config import ClickSyntaxError, parse_config
from repro.click.graphcheck import ClickGraphError, check_config_text, validate_parsed

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def rules_of(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# the tree itself
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean():
    """The repository must have zero unbaselined findings (satellite a)."""
    baseline_file = REPO_ROOT / "lint-baseline.json"
    baseline = Baseline.load(baseline_file) if baseline_file.is_file() else None
    trees = [SRC] + [
        REPO_ROOT / name for name in ("benchmarks", "examples") if (REPO_ROOT / name).is_dir()
    ]
    report = analyze_paths(trees, baseline=baseline)
    assert report.modules_scanned > 100
    assert report.clean, "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in report.findings
    )
    # an entry that matches nothing is a muted alarm for a bug that is gone
    assert report.unused_baseline_entries == []


def test_all_six_passes_run():
    report = analyze_paths([SRC])
    assert report.checkers == [
        "boundary",
        "determinism",
        "interface",
        "clickgraph",
        "taint",
        "ownership",
    ]


def test_one_call_graph_serves_taint_and_ownership(monkeypatch, tmp_path):
    """One run builds each module's function table and import map once."""
    pkg = tmp_path / "repro" / "netsim"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("import json\n\ndef f(x):\n    return json.dumps(x)\n")
    (pkg / "b.py").write_text("from repro.netsim.a import f\n\ndef g(y):\n    return f(y)\n")
    tabled, mapped = [], []
    collect = callgraph.collect_functions
    import_map = engine.ImportMap

    def counting_collect(module):
        tabled.append(module.module)
        return collect(module)

    def counting_import_map(tree):
        mapped.append(tree)
        return import_map(tree)

    monkeypatch.setattr(callgraph, "collect_functions", counting_collect)
    monkeypatch.setattr(engine, "ImportMap", counting_import_map)
    report = analyze_paths([tmp_path], checkers=[TaintChecker(), OwnershipChecker()])
    assert report.modules_scanned == 4
    assert sorted(tabled) == ["repro", "repro.netsim", "repro.netsim.a", "repro.netsim.b"]
    assert len(mapped) == 4


# ----------------------------------------------------------------------
# trust map
# ----------------------------------------------------------------------
def test_trust_domain_longest_prefix_wins():
    assert trust_domain("repro.sgx.enclave") is TrustDomain.TRUSTED
    assert trust_domain("repro.attacks.iago") is TrustDomain.UNTRUSTED
    assert trust_domain("repro.core.enclave_app") is TrustDomain.TRUSTED
    assert trust_domain("repro.core.endbox_client") is TrustDomain.UNTRUSTED
    assert trust_domain("repro.vpn.channel") is TrustDomain.TRUSTED
    assert trust_domain("repro.vpn.middlebox") is TrustDomain.UNTRUSTED
    assert trust_domain("repro.sim.engine") is TrustDomain.SHARED
    # unknown code is untrusted by default
    assert trust_domain("somewhere.else") is TrustDomain.UNTRUSTED


# ----------------------------------------------------------------------
# boundary pass (EB1xx)
# ----------------------------------------------------------------------
def test_eb101_private_import_from_trusted_module():
    findings = analyze_source(
        "from repro.sgx.enclave import _measure\n",
        module="repro.attacks.evil",
        checkers=[BoundaryChecker()],
    )
    assert rules_of(findings) == ["EB101"]
    assert findings[0].severity is Severity.ERROR


def test_eb102_private_attribute_of_trusted_object():
    source = (
        "from repro.sgx import gateway\n"
        "def poke(gw):\n"
        "    return gateway.EnclaveGateway._charge_transition\n"
    )
    findings = analyze_source(
        source, module="repro.attacks.evil", checkers=[BoundaryChecker()]
    )
    assert rules_of(findings) == ["EB102"]
    assert findings[0].symbol == "poke"


def test_eb103_trusted_state_reach_through():
    source = "def steal(endbox):\n    return endbox.enclave.trusted_state['identity_key']\n"
    findings = analyze_source(
        source, module="repro.attacks.evil", checkers=[BoundaryChecker()]
    )
    assert rules_of(findings) == ["EB103"]


def test_trusted_code_may_touch_its_own_state():
    source = "def handler(enclave, gateway):\n    return enclave.trusted_state['x']\n"
    findings = analyze_source(
        source, module="repro.sgx.sealing", checkers=[BoundaryChecker()]
    )
    assert findings == []


def test_public_gateway_use_is_clean():
    source = "def ok(endbox):\n    return endbox.gateway.ecall('get_certificate')\n"
    findings = analyze_source(
        source, module="repro.attacks.evil", checkers=[BoundaryChecker()]
    )
    assert findings == []


# ----------------------------------------------------------------------
# determinism pass (DET4xx)
# ----------------------------------------------------------------------
def test_det401_wall_clock_flagged():
    findings = analyze_source(
        "import time\n\ndef stamp():\n    return time.time()\n",
        module="repro.netsim.link",
        checkers=[DeterminismChecker()],
    )
    assert rules_of(findings) == ["DET401"]


def test_det401_aliased_import_resolved():
    source = "from time import perf_counter as pc\n\ndef t():\n    return pc()\n"
    findings = analyze_source(
        source, module="repro.sim.engine", checkers=[DeterminismChecker()]
    )
    assert rules_of(findings) == ["DET401"]


def test_det402_os_entropy_flagged():
    findings = analyze_source(
        "import os\n\ndef key():\n    return os.urandom(32)\n",
        module="repro.tlslib.session",
        checkers=[DeterminismChecker()],
    )
    assert rules_of(findings) == ["DET402"]


def test_det403_global_random_flagged_but_seeded_instance_ok():
    source = (
        "import random\n"
        "def jitter():\n"
        "    return random.uniform(0, 1)\n"
        "def rng(seed):\n"
        "    return random.Random(seed)\n"
    )
    findings = analyze_source(
        source, module="repro.netsim.jitter", checkers=[DeterminismChecker()]
    )
    assert rules_of(findings) == ["DET403"]
    assert findings[0].line == 3


def test_determinism_allowlist_exempts_runner():
    source = "import time\n\ndef elapsed():\n    return time.time()\n"
    findings = analyze_source(
        source, module="repro.experiments.runner", checkers=[DeterminismChecker()]
    )
    assert findings == []


def test_determinism_skips_non_repro_code():
    findings = analyze_source(
        "import time\nprint(time.time())\n",
        module="conftest",
        checkers=[DeterminismChecker()],
    )
    assert findings == []


def test_determinism_covers_benchmark_tree_by_path():
    # benchmarks/ modules are not under the repro package, but the walker
    # now pulls them into the simulation domain by path
    findings = analyze_source(
        "import time\n\ndef run():\n    return time.time()\n",
        module="bench_smoke",
        checkers=[DeterminismChecker()],
        path="benchmarks/bench_smoke.py",
    )
    assert rules_of(findings) == ["DET401"]


def test_determinism_path_allowlist_exempts_benchmark_conftest():
    # the benchmark harness legitimately wall-clocks its own runs
    findings = analyze_source(
        "import time\n\ndef wall():\n    return time.time()\n",
        module="conftest",
        checkers=[DeterminismChecker()],
        path="benchmarks/conftest.py",
    )
    assert findings == []


# ----------------------------------------------------------------------
# interface pass (IF2xx)
# ----------------------------------------------------------------------
def test_if201_register_ocall_without_validator():
    findings = analyze_source(
        "gateway.register_ocall('fetch', handler)\n",
        module="repro.core.provisioning",
        checkers=[InterfaceChecker()],
    )
    assert rules_of(findings) == ["IF201"]
    assert findings[0].severity is Severity.ERROR


def test_if201_validator_keyword_or_positional_accepted():
    source = (
        "gateway.register_ocall('a', handler, validator=check)\n"
        "gateway.register_ocall('b', handler, check)\n"
        "gateway.register_ocall('bait', handler, unvalidated_ok=True)\n"
    )
    findings = analyze_source(
        source, module="repro.core.provisioning", checkers=[InterfaceChecker()]
    )
    assert findings == []


def test_if201_explicit_none_validator_still_flagged():
    findings = analyze_source(
        "gateway.register_ocall('fetch', handler, validator=None)\n",
        module="repro.core.provisioning",
        checkers=[InterfaceChecker()],
    )
    assert rules_of(findings) == ["IF201"]


def test_if202_crossing_with_payload_but_no_declaration():
    findings = analyze_source(
        "gateway.ecall('apply_config', blob)\n",
        module="repro.core.endbox_client",
        checkers=[InterfaceChecker()],
    )
    assert rules_of(findings) == ["IF202"]


def test_if202_declared_or_payloadless_crossings_clean():
    source = (
        "gateway.ecall('apply_config', blob, payload_bytes=len(blob))\n"
        "gateway.ecall('generate_keypair')\n"
        "gateway.ocall('notify', session, payload_bytes=0)\n"
    )
    findings = analyze_source(
        source, module="repro.core.endbox_client", checkers=[InterfaceChecker()]
    )
    assert findings == []


# ----------------------------------------------------------------------
# inline suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_silences_named_rule():
    source = "import time\n\ndef t():\n    return time.time()  # endbox-lint: ignore[DET401]\n"
    findings = analyze_source(
        source, module="repro.netsim.link", checkers=[DeterminismChecker()]
    )
    assert findings == []


def test_inline_suppression_is_rule_specific():
    source = "import time\n\ndef t():\n    return time.time()  # endbox-lint: ignore[EB103]\n"
    findings = analyze_source(
        source, module="repro.netsim.link", checkers=[DeterminismChecker()]
    )
    assert rules_of(findings) == ["DET401"]


# ----------------------------------------------------------------------
# baseline suppressions
# ----------------------------------------------------------------------
def test_baseline_entry_matches_rule_and_path_suffix():
    findings = analyze_source(
        "import time\n\ndef t():\n    return time.time()\n",
        module="repro.netsim.link",
        checkers=[DeterminismChecker()],
        path="src/repro/netsim/link.py",
    )
    entry = Waiver(rule="DET401", path="repro/netsim/link.py", note="legacy")
    assert entry.matches(findings[0])
    assert not Waiver(rule="DET402", note="other rule").matches(findings[0])
    assert not Waiver(path="repro/sim/engine.py", note="other file").matches(findings[0])


def test_baseline_requires_rule_or_path(tmp_path):
    with pytest.raises(ValueError):
        Waiver(note="matches everything")
    path = tmp_path / "lint-baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": [{"note": "matches everything"}]}))
    with pytest.raises(BaselineError):
        Baseline.load(path)


def test_baseline_roundtrip_and_stale_detection(tmp_path):
    baseline = Baseline(
        [
            Waiver(rule="DET401", path="link.py", note="sim clock migration"),
            Waiver(rule="EB101", note="never hit"),
        ]
    )
    path = tmp_path / "lint-baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert len(loaded.entries) == 2

    finding = analyze_source(
        "import time\nt = time.time()\n",
        module="repro.netsim.link",
        checkers=[DeterminismChecker()],
        path="src/repro/netsim/link.py",
    )[0]
    assert loaded.suppresses(finding)
    stale = loaded.unused_entries()
    assert len(stale) == 1 and stale[0].rule == "EB101"


def test_baseline_load_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(BaselineError):
        Baseline.load(path)
    path.write_text('["wrong shape"]')
    with pytest.raises(BaselineError):
        Baseline.load(path)


# ----------------------------------------------------------------------
# Click graph validation (CG3xx)
# ----------------------------------------------------------------------
GOOD = "from :: FromDevice();\nto :: ToDevice();\nfrom -> to;\n"


def fatal_rules(text):
    with pytest.raises(ClickGraphError) as excinfo:
        check_config_text(text)
    return {issue.rule for issue in excinfo.value.issues}


def test_good_config_validates_clean():
    assert check_config_text(GOOD) == []


def test_cg301_unknown_element_class():
    assert "CG301" in fatal_rules(
        "from :: FromDevice();\nx :: NoSuchElement();\nfrom -> x;\n"
    )


def test_cg302_dangling_output_port():
    # ToDevice has no output port 3
    assert "CG302" in fatal_rules(
        "from :: FromDevice();\nto :: ToDevice();\nfrom -> to;\nto[3] -> from;\n"
    )


def test_cg303_dangling_input_port():
    # ToDevice declares a single input
    assert "CG303" in fatal_rules(
        "from :: FromDevice();\nto :: ToDevice();\nfrom -> [5]to;\n"
    )


def test_cg304_output_wired_twice():
    text = (
        "from :: FromDevice();\na :: Counter();\nb :: Counter();\nto :: ToDevice();\n"
        "from -> a;\nfrom -> b;\na -> to;\nb -> to;\n"
    )
    assert "CG304" in fatal_rules(text)


def test_fan_in_to_same_input_is_allowed():
    # two sources merging into one input port is legal Click (cf. lb_config)
    text = (
        "from :: FromDevice();\ntee :: Tee();\nto :: ToDevice();\n"
        "from -> tee;\ntee[0] -> [0]to;\ntee[1] -> [0]to;\n"
    )
    assert check_config_text(text) == []


def test_cg305_mandatory_output_unconnected():
    issues = validate_parsed(
        parse_config("from :: FromDevice();\nc :: Counter();\nfrom -> c;\n")
    )
    cg305 = [issue for issue in issues if issue.rule == "CG305"]
    assert cg305 and not cg305[0].fatal and cg305[0].element == "c"


def test_cg306_unreachable_element_is_nonfatal():
    issues = check_config_text(
        "from :: FromDevice();\nto :: ToDevice();\nidle :: Idle();\nfrom -> to;\n"
    )
    assert "CG306" in {issue.rule for issue in issues}


def test_cg307_cycle_detected():
    text = (
        "from :: FromDevice();\na :: Counter();\nb :: Counter();\n"
        "from -> a;\na -> b;\nb -> a;\n"
    )
    assert "CG307" in fatal_rules(text)


def test_cg308_multiple_entry_elements():
    text = "a :: FromDevice();\nb :: FromDevice();\nto :: ToDevice();\na -> to;\nb -> to;\n"
    rules = fatal_rules(text)
    assert "CG308" in rules


def test_cg309_no_entry_is_nonfatal():
    issues = validate_parsed(parse_config("a :: Counter();\nto :: ToDevice();\na -> to;\n"))
    assert "CG309" in {issue.rule for issue in issues}


def test_shipped_configurations_all_validate():
    from repro.click import configs

    for maker in (
        configs.nop_config,
        configs.lb_config,
        configs.firewall_config,
        configs.idps_config,
        configs.ddos_config,
    ):
        assert check_config_text(maker()) == [], maker.__name__
    assert check_config_text(configs.MINIMAL_CONFIG) == []


# ----------------------------------------------------------------------
# load-time validation: hotswap + apply_config ecall
# ----------------------------------------------------------------------
def test_hotswap_rejects_invalid_config_before_commit():
    from repro.click import HotSwapManager, configs
    from repro.costs import default_cost_model

    manager = HotSwapManager(configs.nop_config(), default_cost_model(), in_memory=True)
    running = manager.router
    with pytest.raises(ClickGraphError):
        manager.hotswap("from :: FromDevice();\nx :: NoSuchElement();\nfrom -> x;\n")
    # the rejected swap never touched the running router
    assert manager.router is running
    with pytest.raises(ClickSyntaxError):
        manager.hotswap("this is not click at all")
    assert manager.router is running


def test_hotswap_validation_does_not_import_the_linter():
    # the graph validator is runtime code; a deployment that swaps
    # configurations must not pay for importing endbox-lint
    code = (
        "import sys\n"
        "from repro.click import HotSwapManager, configs\n"
        "from repro.costs import default_cost_model\n"
        "manager = HotSwapManager(configs.nop_config(), default_cost_model())\n"
        "manager.hotswap(configs.firewall_config())\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_hotswap_manager_validates_initial_config():
    from repro.click import HotSwapManager
    from repro.costs import default_cost_model

    cyclic = "from :: FromDevice();\na :: Counter();\nfrom -> a;\na -> a;\n"
    with pytest.raises(ClickGraphError):
        HotSwapManager(cyclic, default_cost_model())


def test_apply_config_ecall_raises_config_error_on_bad_graph():
    from repro.click import configs as click_configs
    from repro.core.ca import CertificateAuthority
    from repro.core.config_update import ConfigPublisher
    from repro.core.enclave_app import ConfigError, EndBoxEnclave, build_endbox_image
    from repro.core.provisioning import provision_client
    from repro.costs import default_cost_model
    from repro.sgx import IntelAttestationService, SealedStorage, SgxPlatform
    from repro.sim import Simulator

    ias = IntelAttestationService()
    ca = CertificateAuthority(ias, seed=b"lint-ca")
    image = build_endbox_image(ca.public_key, default_cost_model())
    ca.whitelist_measurement(image.measure())
    platform = SgxPlatform(ias)
    endbox = EndBoxEnclave.create(image, platform)
    provision_client(endbox, platform, ca, SealedStorage(platform.platform_id))
    endbox.gateway.ecall("initialize", click_configs.nop_config(), "", sim=Simulator())

    bad = "from :: FromDevice();\nx :: NoSuchElement();\nfrom -> x;\n"
    bundle = ConfigPublisher(ca).build_bundle(2, bad, "", True)
    with pytest.raises(ConfigError, match="rejected before swap"):
        endbox.gateway.ecall("apply_config", bundle.blob, payload_bytes=len(bundle.blob))
    # the running router is untouched and still at version 1
    assert endbox.enclave.trusted_state["config_version"] == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def write_clocky_tree(root):
    """A one-module tree whose only finding is DET401."""
    bad = root / "repro" / "netsim"
    bad.mkdir(parents=True)
    (bad / "__init__.py").write_text("")
    (bad / "clocky.py").write_text(
        '"""Bad module."""\nimport time\n\nSTAMP = time.time()\n'
    )
    return root


def test_cli_clean_tree_exits_zero():
    result = run_cli(str(SRC), "--format=text")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_json_format_is_machine_readable():
    result = run_cli(str(SRC), "--format=json")
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["summary"]["clean"] is True
    assert payload["summary"]["findings"] == 0
    assert set(payload["summary"]["checkers"]) == {
        "boundary",
        "determinism",
        "interface",
        "clickgraph",
        "taint",
        "ownership",
    }
    assert payload["findings"] == []


def test_cli_reports_findings_and_exits_nonzero(tmp_path):
    write_clocky_tree(tmp_path)
    result = run_cli(str(tmp_path), "--format=json", "--no-baseline")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert [finding["rule"] for finding in payload["findings"]] == ["DET401"]


def test_cli_baseline_workflow(tmp_path):
    write_clocky_tree(tmp_path)
    baseline = tmp_path / "lint-baseline.json"
    # 1. adopt: write the baseline, exit 0
    wrote = run_cli(str(tmp_path), "--write-baseline", str(baseline))
    assert wrote.returncode == 0
    assert baseline.is_file()
    # 2. subsequent runs against the baseline are clean
    again = run_cli(str(tmp_path), "--baseline", str(baseline), "--format=json")
    assert again.returncode == 0
    payload = json.loads(again.stdout)
    assert payload["summary"]["clean"] is True
    assert payload["summary"]["baselined"] == 1
    # 3. --no-baseline still reports the truth
    naked = run_cli(str(tmp_path), "--no-baseline")
    assert naked.returncode == 1


def test_cli_rules_filter_and_listing():
    listing = run_cli("--list-rules")
    assert listing.returncode == 0
    for rule in ("EB101", "DET401", "IF201", "CG307", "GEN001"):
        assert rule in listing.stdout
    result = run_cli(str(SRC), "--rules", "EB103,DET401")
    assert result.returncode == 0
    bogus = run_cli(str(SRC), "--rules", "NOPE99")
    assert bogus.returncode == 2


def test_cli_lists_no_retired_hp_rules():
    listing = run_cli("--list-rules").stdout
    assert "HP705" in listing
    for retired in ("HP701", "HP702", "HP703", "HP704"):
        assert retired not in listing


def test_cli_sarif_reports_findings(tmp_path):
    tree = write_clocky_tree(tmp_path)
    result = run_cli(str(tree), "--format=sarif", "--no-baseline")
    assert result.returncode == 1
    run = json.loads(result.stdout)["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "DET401" in rule_ids
    assert [entry["ruleId"] for entry in run["results"]] == ["DET401"]


def test_cli_sarif_out_writes_report_file(tmp_path):
    tree = write_clocky_tree(tmp_path / "tree")
    out = tmp_path / "lint.sarif"
    result = run_cli(str(tree), "--no-baseline", f"--sarif-out={out}", cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    sarif = json.loads(out.read_text())
    assert [entry["ruleId"] for entry in sarif["runs"][0]["results"]] == ["DET401"]


def test_cli_budget_exceeded_exits_3(tmp_path):
    tree = write_clocky_tree(tmp_path)
    result = run_cli(str(tree), "--no-baseline", "--budget", "0")
    assert result.returncode == 3, result.stdout + result.stderr
    assert "budget exceeded" in result.stderr


def test_cli_budget_met_keeps_finding_exit_code(tmp_path):
    tree = write_clocky_tree(tmp_path)
    result = run_cli(str(tree), "--no-baseline", "--budget", "600")
    assert result.returncode == 1


def test_cli_syntax_error_produces_gen001(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    result = run_cli(str(tmp_path), "--format=json", "--no-baseline")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert [finding["rule"] for finding in payload["findings"]] == ["GEN001"]


def test_rule_ids_are_unique_across_passes():
    rules = all_rules()
    per_checker = [set(checker.rules) for checker in default_checkers()]
    total = sum(len(s) for s in per_checker)
    assert total + 1 == len(rules)  # +1 for GEN001

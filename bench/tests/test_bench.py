"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import sys
import types

import pytest

import bench.__main__
from bench import ROOT
from bench.__main__ import BenchError, main
from bench.compare import compare
from bench.metrics import END_TO_END, PER_LAYER, end_to_end
from bench.spans import TARGETS, SpanRecorder, install
from bench.speed import REFERENCE_S
from bench.workloads import WORKLOADS


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_documents(tmp_path_factory):
    """One --quick run of every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("bench")
    documents = {}
    for trace in (0, 1):
        path = out / f"trace{trace}.json"
        assert main(["--quick", "--trace", str(trace), "--json", str(path)]) == 0
        documents[trace] = json.loads(path.read_text())
    return documents


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_of_every_workload_passes_the_checks(quick_documents, trace):
    (run,) = quick_documents[trace]["runs"]
    assert sorted(run) == sorted(WORKLOADS)
    for name, result in run.items():
        assert result["correct"], (name, result["failures"])
        assert result["failed"] == 0
        assert result["attempted"] > 0


def test_json_document_carries_every_benchmark_metric_with_its_unit(quick_documents):
    config = benchmark_json()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        (run,) = quick_documents[trace]["runs"]
        expected = {entry["name"]: entry["unit"] for entry in config[section]}
        for name, result in run.items():
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            assert got == expected, (name, section)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    config = benchmark_json()
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {e["name"]: (e["unit"], e["better"]) for e in config[section]} == table
    bounds = {e["name"]: e["bound"] for e in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _bindings():
    """Every place a target is bound: (owner, attribute) -> object."""
    import repro  # noqa: F401

    for _layer, module_name, _path in TARGETS:
        __import__(module_name)
    originals = {}
    for _layer, module_name, path in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            owner = getattr(module, path.split(".")[0])
            target = vars(owner)[path.split(".")[1]]
            owners = [owner]
        else:
            target = getattr(module, path)
            owners = [m for n, m in sys.modules.items() if n.startswith("repro") and m is not None]
        for owner in owners:
            for attr, value in vars(owner).items():
                if value is target:
                    originals[(owner, attr)] = value
    return originals


def test_install_and_uninstall_restore_every_binding_by_identity():
    originals = _bindings()
    import repro.crypto.hmac
    import repro.crypto.stream
    import repro.vpn.channel

    # bound by name elsewhere, and aliased within a class
    assert repro.vpn.channel.hmac_verify is repro.crypto.hmac.hmac_verify
    cipher = repro.crypto.stream.KeystreamCipher
    assert vars(cipher)["encrypt"] is vars(cipher)["process"]

    patches = install(SpanRecorder())
    late = types.ModuleType("repro._late_import_probe")
    try:
        for (owner, attr), value in originals.items():
            assert vars(owner)[attr] is not value, (owner, attr)
        assert repro.vpn.channel.hmac_verify is repro.crypto.hmac.hmac_verify
        assert vars(cipher)["decrypt"] is vars(cipher)["process"]
        # a module imported while the wrappers are in binds a wrapper
        late.hmac_verify = repro.crypto.hmac.hmac_verify
        sys.modules[late.__name__] = late
    finally:
        patches.uninstall()
        sys.modules.pop(late.__name__, None)
    for (owner, attr), value in originals.items():
        assert vars(owner)[attr] is value, (owner, attr)
    assert late.hmac_verify is repro.crypto.hmac.hmac_verify


class ScriptedClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_arithmetic_on_a_nested_call_tree():
    clock = ScriptedClock()
    recorder = SpanRecorder(clock)

    def leaf():
        clock.tick(2)

    def failing_leaf():
        clock.tick(1)
        raise ValueError

    def mid():
        clock.tick(1)
        leaf_span()
        clock.tick(3)

    def inner_same_layer():
        clock.tick(4)

    def outer():
        clock.tick(5)
        mid_span()
        leaf_span()
        same_span()
        with pytest.raises(ValueError):
            failing_span()
        clock.tick(1)

    leaf_span = recorder.wrap("crypto", "leaf", leaf)
    failing_span = recorder.wrap("crypto", "failing", failing_leaf)
    mid_span = recorder.wrap("vpn", "mid", mid)
    same_span = recorder.wrap("sim", "same", inner_same_layer)
    recorder.wrap("sim", "outer", outer)()

    # outer = 5 + mid(1 + leaf 2 + 3) + leaf 2 + same 4 + failing 1 + 1
    assert recorder.inclusive_s == {"outer": 19, "mid": 6, "leaf": 4, "same": 4, "failing": 1}
    assert recorder.self_s == {"sim": 6 + 4, "vpn": 4, "crypto": 2 + 2 + 1}
    assert recorder.calls == {"outer": 1, "mid": 1, "leaf": 2, "same": 1, "failing": 1}
    assert sum(recorder.self_s.values()) == recorder.inclusive_s["outer"]
    recorder.reset()
    assert not recorder.self_s and not recorder.calls


def test_wall_times_are_scaled_by_the_kernel_timing_next_to_them():
    # the second slice ran on a machine twice as slow: half the raw rate,
    # twice the kernel time, the same scaled rate
    window = {"slices": [[100, 0.1, REFERENCE_S], [100, 0.2, 2 * REFERENCE_S]], "peak_rss_mb": 1.0}
    setups = [
        {"setup_s": 0.3, "reference_s": [REFERENCE_S] * 3},
        {"setup_s": 0.9, "reference_s": [3 * REFERENCE_S] * 3},
        {"setup_s": 0.6, "reference_s": [REFERENCE_S] * 3},
    ]
    metrics = end_to_end([window], setups)
    assert metrics["pkts_per_s"] == pytest.approx(1000)
    assert metrics["setup_s"] == pytest.approx(0.3)


def test_a_crashed_child_still_ends_stdout_with_a_failed_result(monkeypatch, capsys):
    def crash(request):
        raise BenchError(f"{request['workload']}: child exited 1")

    monkeypatch.setattr(bench.__main__, "spawn", crash)
    assert main(["--workload", "small_uplink", "--quick"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _document(path, values):
    runs = [{"w": {"metrics": {"pkts_per_s": {"value": v, "unit": "packets/s"}}}} for v in values]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_flags_breaches_and_wide_spreads(tmp_path, capsys):
    config = benchmark_json()
    bound = next(e["bound"] for e in config["end_to_end"] if e["name"] == "pkts_per_s")
    base = _document(tmp_path / "a.json", [100, 101, 99, 100, 100])
    same = _document(tmp_path / "b.json", [99, 100, 101, 100, 100])
    low = 100 * (1 - 2 * bound)
    slower = _document(tmp_path / "c.json", [low, low + 1, low - 1, low, low])
    noisy = _document(tmp_path / "d.json", [low, 100 * (1 + 2 * bound), 95, 100, 100])
    assert compare(base, same, config) == 0
    assert "ok" in capsys.readouterr().out
    assert compare(base, slower, config) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert compare(base, noisy, config) == 0
    assert "unresolved" in capsys.readouterr().out

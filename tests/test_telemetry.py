"""repro.telemetry: registry lifecycle, sessions, exporter, zero-overhead.

Covers the observability layer's contract: canonical name registration,
one flat registry per simulator that starts from zero, sessions that
sum their simulators at read time and pass on ``recording``, histogram
bucketing, the JSON exporter and the runner's ``--telemetry`` artifact,
the recording gate on the Click router's per-element counters, and the
differential guarantee that turning telemetry on does not change a
single packet byte.
"""

import json

import pytest

from repro import telemetry
from repro.analysis.engine import Analyzer
from repro.analysis.trustmap import TrustDomain, determinism_exempt, trust_domain
from repro.click import Router, configs
from repro.costs import default_cost_model
from repro.netsim.traffic import make_payload
from repro.sim import Simulator
from repro.telemetry import Registry, TelemetryError, TelemetryNameError, session
from repro.telemetry import names as tm_names
from repro.vpn.channel import DataChannel, ProtectionMode
from repro.vpn.protocol import OP_DATA, VpnPacket

# names used only by this test file
tm_names.register("test.counter.hits", "counter", "hits", "test counter")
tm_names.register("test.hist.sizes", "histogram", "bytes", "test histogram")


# ----------------------------------------------------------------------
# canonical names
# ----------------------------------------------------------------------
def test_register_is_idempotent_and_conflicts_raise():
    tm_names.register("test.counter.hits", "counter")  # identical: fine
    with pytest.raises(TelemetryNameError):
        tm_names.register("test.counter.hits", "histogram")  # kind conflict


@pytest.mark.parametrize("bad", ["one", "two.segments", "Caps.not.ok", "trailing.dot."])
def test_malformed_names_rejected(bad):
    with pytest.raises(TelemetryNameError):
        tm_names.register(bad, "counter")


def test_fleet_names_registered_with_metadata():
    # the repro.fleet instrument family ships kind/unit/help like every
    # core name, so exporters can annotate fleet counters unchanged
    expected = {
        "fleet.balancer.picks": "lookups",
        "fleet.balancer.remaps": "clients",
        "fleet.balancer.migrations": "clients",
        "fleet.gateway.stale_rejected": "packets",
        "fleet.gateway.stale_admitted": "packets",
    }
    for name, unit in expected.items():
        info = tm_names.info(name)
        assert info.kind == "counter"
        assert info.unit == unit
        assert info.help


def test_unregistered_names_rejected_by_registry():
    reg = Registry()
    with pytest.raises(TelemetryNameError):
        reg.counter("never.registered.name")
    with pytest.raises(TelemetryNameError):
        reg.histogram("test.counter.hits")  # registered, but as a counter


# ----------------------------------------------------------------------
# lifecycle and sessions
# ----------------------------------------------------------------------
def _one_tick(sim):
    yield sim.timeout(0.001)


def test_fresh_simulator_starts_from_zero():
    sim1 = Simulator()
    sim1.process(_one_tick(sim1))
    sim1.run()
    assert sim1.telemetry.value("sim.engine.events") == sim1.events_executed > 0
    # the old bug class was counts surviving across simulator instances
    sim2 = Simulator()
    assert sim2.telemetry.value("sim.engine.events") == 0
    assert sim2.telemetry is not sim1.telemetry


def test_session_sums_the_simulators_built_inside_it():
    outside = Simulator()
    outside.process(_one_tick(outside))
    with session(label="summed") as collected:
        sims = [Simulator(), Simulator()]
        for sim in sims:
            sim.process(_one_tick(sim))
            sim.run()
        sims[0].telemetry.histogram("test.hist.sizes", bounds=(10, 100)).observe(5)
        sims[1].telemetry.histogram("test.hist.sizes", bounds=(10, 100)).observe(500)
    outside.run()
    assert collected.registries == [sim.telemetry for sim in sims]
    events = sum(sim.events_executed for sim in sims)
    assert collected.value("sim.engine.events") == events > 0
    snap = collected.snapshot()
    assert snap["label"] == "summed"
    assert snap["counters"]["sim.engine.events"] == events
    hist = snap["histograms"]["test.hist.sizes"]
    assert (hist["counts"], hist["min"], hist["max"]) == ([1, 0, 1], 5, 500)
    # reads are sums taken now: the registries themselves are untouched
    assert sims[0].telemetry.value("sim.engine.events") == sims[0].events_executed


def test_simulator_inside_session_inherits_recording():
    with session(recording=True):
        assert Simulator().telemetry.recording
    with session(recording=False):
        assert not Simulator().telemetry.recording
    assert not Simulator().telemetry.recording  # no session: plain registry


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def test_histogram_bucketing_overflow_and_stats():
    hist = Registry().histogram("test.hist.sizes", bounds=(10, 100))
    for value in (1, 10, 11, 100, 5000):
        hist.observe(value)
    data = hist.to_dict()
    # buckets: <=10, <=100, overflow — upper bounds inclusive
    assert data["counts"] == [2, 2, 1]
    assert data["count"] == 5
    assert data["sum"] == 5122
    assert (data["min"], data["max"]) == (1, 5000)


def test_histogram_bounds_must_agree_across_a_chain():
    reg = Registry()
    reg.histogram("test.hist.sizes", bounds=(1, 2))
    with pytest.raises(TelemetryError):
        reg.histogram("test.hist.sizes", bounds=(3, 4))


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _populated_registry():
    reg = Registry(recording=True, label="golden")
    reg.counter("test.counter.hits").inc(7)
    reg.histogram("test.hist.sizes", bounds=(10, 100)).observe(42)
    return reg


def test_artifact_golden():
    doc = telemetry.build_artifact(_populated_registry(), meta={"experiment": "golden"})
    assert doc["version"] == 1
    assert doc["meta"] == {"experiment": "golden"}
    assert sorted(doc["telemetry"]) == ["counters", "histograms", "label", "recording"]
    assert doc["telemetry"]["counters"] == {"test.counter.hits": 7}
    assert doc["names"]["test.counter.hits"] == {
        "kind": "counter",
        "unit": "hits",
        "help": "test counter",
    }
    # deterministic serialisation: same registry, same bytes
    assert telemetry.to_json(doc["telemetry"]) == telemetry.to_json(doc["telemetry"])


def test_write_json_round_trip(tmp_path):
    path = tmp_path / "telemetry.json"
    telemetry.write_json(_populated_registry(), str(path), meta={"k": "v"})
    doc = json.loads(path.read_text())
    assert doc["meta"] == {"k": "v"}
    assert doc["telemetry"]["counters"]["test.counter.hits"] == 7


def test_runner_telemetry_artifact_records_and_repeats():
    """``runner --telemetry`` records what it claims (per-element Click
    counters and the link queue-depth histogram, which only a recording
    registry keeps) and writes the same bytes on every run."""
    from repro.experiments.runner import run_experiment

    def artifact():
        (result,) = run_experiment("fig7", quick=True, with_telemetry=True)
        return result.telemetry, telemetry.to_json(result.telemetry, meta={"experiment": "fig7"})

    snap, first = artifact()
    assert snap["recording"] is True
    assert snap["counters"]["click.fromdevice.packets"] > 0
    assert snap["histograms"]["netsim.link.queue_depth"]["count"] > 0
    assert artifact()[1] == first


# ----------------------------------------------------------------------
# zero overhead when disabled
# ----------------------------------------------------------------------
def test_instrumented_and_plain_dispatch_agree_on_output():
    from repro.netsim.packet import IPv4Packet, UdpDatagram

    packets = [
        IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(40000 + i, 8080, b"x" * 32))
        for i in range(8)
    ]
    model = default_cost_model()
    with session(recording=False):
        Simulator()
        plain = Router(configs.firewall_config(), model).process_batch(packets)
    with session(recording=True) as collected:
        Simulator()
        traced = Router(configs.firewall_config(), model).process_batch(packets)
    assert collected.value("click.fromdevice.packets") == len(packets)
    assert [a for a, _ in plain] == [a for a, _ in traced]
    assert [p.serialize() for _, p in plain] == [p.serialize() for _, p in traced]


# ----------------------------------------------------------------------
# differential: telemetry on vs off is byte-identical (fig10 smoke)
# ----------------------------------------------------------------------
def _channel_wire_bytes(recording):
    with session(recording=recording):
        Simulator()
        tx = DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
        items = [(VpnPacket(OP_DATA, 7, pid), make_payload(64)) for pid in range(1, 9)]
        return [p.serialize() for p in tx.protect_batch(items)]


def test_data_channel_bytes_identical_with_telemetry():
    assert _channel_wire_bytes(True) == _channel_wire_bytes(False)


def test_fig10_smoke_identical_with_telemetry():
    from repro.experiments import fig10_scalability

    def run(recording):
        with session(recording=recording):
            return fig10_scalability.run_fig10a(counts=(1,), duration=0.02)

    off, on = run(False), run(True)
    assert on.series == off.series
    assert on.metadata["cpu_percent"] == off.metadata["cpu_percent"]


# ----------------------------------------------------------------------
# trust map and lints
# ----------------------------------------------------------------------
def test_telemetry_is_shared_and_not_determinism_exempt():
    assert trust_domain("repro.telemetry") is TrustDomain.SHARED
    assert trust_domain("repro.telemetry.registry") is TrustDomain.SHARED
    # no wall-clock privileges: nothing in the registry reads a clock
    assert not determinism_exempt("repro.telemetry")
    assert not determinism_exempt("repro.telemetry.export")


def test_telemetry_package_lints_clean_with_zero_baselines():
    report = Analyzer().run(["src/repro/telemetry"])
    assert [f"{f.rule}:{f.path}:{f.line}" for f in report.findings] == []

"""repro.telemetry: registry lifecycle, spans, exporters, zero-overhead.

Covers the observability layer's contract: canonical name registration,
the mirror tree (component -> simulator -> session -> process root),
registry-lifetime reset semantics, ``fork_isolated`` for tests, span
nesting under an injected clock, histogram bucketing, the three
exporters, the recording gate on the Click router's per-element
counters, and the differential guarantee that turning telemetry on does not change
a single packet byte.
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
from repro.telemetry import (
    Registry,
    TelemetryError,
    TelemetryNameError,
    fork_isolated,
    session,
)
from repro.telemetry import names as tm_names
from repro.vpn.channel import DataChannel, ProtectionMode
from repro.vpn.protocol import OP_DATA, VpnPacket

# names used only by this test file
tm_names.register("test.counter.hits", "counter", "hits", "test counter")
tm_names.register("test.gauge.level", "gauge", "units", "test gauge")
tm_names.register("test.hist.sizes", "histogram", "bytes", "test histogram")
tm_names.register("test.span.outer", "span", "seconds", "test span")
tm_names.register("test.span.inner", "span", "seconds", "test span")


# ----------------------------------------------------------------------
# canonical names
# ----------------------------------------------------------------------
def test_register_is_idempotent_and_conflicts_raise():
    tm_names.register("test.counter.hits", "counter")  # identical: fine
    with pytest.raises(TelemetryNameError):
        tm_names.register("test.counter.hits", "gauge")  # kind conflict


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
    with fork_isolated() as reg:
        with pytest.raises(TelemetryNameError):
            reg.counter("never.registered.name")
        with pytest.raises(TelemetryNameError):
            reg.gauge("test.counter.hits")  # registered, but as a counter


# ----------------------------------------------------------------------
# the mirror tree and lifecycle
# ----------------------------------------------------------------------
def test_counter_mirrors_up_the_chain():
    with fork_isolated(label="outer") as outer:
        child = Registry(parent=outer, label="child")
        child.counter("test.counter.hits").inc(3)
        assert child.value("test.counter.hits") == 3
        assert outer.value("test.counter.hits") == 3
        # a sibling starts at zero but shares the outer aggregate
        sibling = Registry(parent=outer, label="sibling")
        sibling.counter("test.counter.hits").inc()
        assert sibling.value("test.counter.hits") == 1
        assert outer.value("test.counter.hits") == 4


def test_private_counter_is_exact_per_owner():
    with fork_isolated() as reg:
        a = reg.counter("test.counter.hits", private=True)
        b = reg.counter("test.counter.hits", private=True)
        a.inc(5)
        b.inc(2)
        assert (a.value, b.value) == (5, 2)  # per-owner reads stay exact
        assert reg.value("test.counter.hits") == 7  # shared aggregate


def test_fresh_simulator_resets_counts_process_root_accumulates():
    with fork_isolated(label="root-standin") as root:
        def one_tick(sim):
            yield sim.timeout(0.001)

        sim1 = Simulator()
        sim1.process(one_tick(sim1))
        sim1.run()
        first = sim1.telemetry.value("sim.engine.events")
        assert first > 0
        # a fresh Simulator starts from zero — the old bug class was
        # counts surviving across simulator instances
        sim2 = Simulator()
        assert sim2.telemetry.value("sim.engine.events") == 0
        sim2.process(one_tick(sim2))
        sim2.run()
        # while the enclosing root keeps the whole-process view
        assert root.value("sim.engine.events") == first + sim2.telemetry.value(
            "sim.engine.events"
        )


def test_fork_isolated_never_touches_process_root():
    root = Registry.process_root()
    before = root.value("test.counter.hits")
    with fork_isolated() as reg:
        reg.counter("test.counter.hits").inc(100)
        assert reg.value("test.counter.hits") == 100
    assert root.value("test.counter.hits") == before


def test_session_mirrors_into_process_root():
    before = Registry.process_root().value("test.counter.hits")
    with session(label="mirrored") as reg:
        reg.counter("test.counter.hits").inc(2)
    assert Registry.process_root().value("test.counter.hits") == before + 2


def test_simulator_inside_session_inherits_recording():
    with session(recording=True):
        assert Simulator().telemetry.recording
    with session(recording=False):
        assert not Simulator().telemetry.recording


def test_reset_zeroes_instruments_without_touching_mirrors():
    with fork_isolated() as outer:
        child = Registry(parent=outer)
        child.counter("test.counter.hits").inc(4)
        child.reset()
        assert child.value("test.counter.hits") == 0
        assert outer.value("test.counter.hits") == 4  # mirrors unaffected


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_span_nesting_depth_order_and_injected_clock():
    ticks = iter(range(100))
    with fork_isolated(recording=True, clock=lambda: next(ticks)) as reg:
        with reg.span("test.span.outer"):
            with reg.span("test.span.inner"):
                pass
    inner, outer = reg.spans  # closed inner-first
    assert (inner["name"], inner["depth"]) == ("test.span.inner", 1)
    assert (outer["name"], outer["depth"]) == ("test.span.outer", 0)
    assert outer["start"] < inner["start"] < inner["end"] < outer["end"]


def test_spans_are_noop_unless_recording():
    with fork_isolated(recording=False) as reg:
        with reg.span("test.span.outer"):
            pass
    assert reg.spans == []


def test_span_without_clock_records_structure_only():
    with fork_isolated(recording=True) as reg:
        with reg.span("test.span.outer"):
            pass
    (record,) = reg.spans
    assert record["start"] is None and record["end"] is None


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def test_histogram_bucketing_overflow_and_stats():
    with fork_isolated() as reg:
        hist = reg.histogram("test.hist.sizes", bounds=(10, 100))
        for value in (1, 10, 11, 100, 5000):
            hist.observe(value)
    data = hist.to_dict()
    # buckets: <=10, <=100, overflow — upper bounds inclusive
    assert data["counts"] == [2, 2, 1]
    assert data["count"] == 5
    assert data["sum"] == 5122
    assert (data["min"], data["max"]) == (1, 5000)


def test_histogram_bounds_must_agree_across_a_chain():
    with fork_isolated() as reg:
        reg.histogram("test.hist.sizes", bounds=(1, 2))
        with pytest.raises(TelemetryError):
            reg.histogram("test.hist.sizes", bounds=(3, 4))


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _populated_registry():
    reg = Registry(label="golden", recording=True)
    reg.counter("test.counter.hits").inc(7)
    reg.gauge("test.gauge.level").set(2.5)
    reg.histogram("test.hist.sizes", bounds=(10, 100)).observe(42)
    with reg.span("test.span.outer"):
        pass
    return reg


def test_artifact_golden():
    doc = telemetry.build_artifact(_populated_registry(), meta={"experiment": "golden"})
    assert doc["version"] == 1
    assert doc["meta"] == {"experiment": "golden"}
    assert doc["telemetry"]["counters"] == {"test.counter.hits": 7}
    assert doc["names"]["test.counter.hits"] == {
        "kind": "counter",
        "unit": "hits",
        "help": "test counter",
    }
    # deterministic serialisation: same registry, same bytes
    assert telemetry.to_json(doc["telemetry"]) == telemetry.to_json(doc["telemetry"])


def test_csv_golden():
    csv = telemetry.to_csv(_populated_registry())
    assert csv.splitlines() == [
        "name,kind,field,value",
        "test.counter.hits,counter,value,7",
        "test.gauge.level,gauge,value,2.5",
        "test.hist.sizes,histogram,count,1",
        "test.hist.sizes,histogram,sum,42.0",
        "test.hist.sizes,histogram,min,42",
        "test.hist.sizes,histogram,max,42",
        "test.hist.sizes,histogram,le_10,0",
        "test.hist.sizes,histogram,le_100,1",
        "test.hist.sizes,histogram,overflow,0",
    ]


def test_summary_mentions_every_instrument():
    text = telemetry.summary(_populated_registry())
    for needle in ("test.counter.hits", "test.gauge.level", "test.hist.sizes", "test.span.outer"):
        assert needle in text


def test_write_json_round_trip(tmp_path):
    path = tmp_path / "telemetry.json"
    telemetry.write_json(_populated_registry(), str(path), meta={"k": "v"})
    doc = json.loads(path.read_text())
    assert doc["meta"] == {"k": "v"}
    assert doc["telemetry"]["counters"]["test.counter.hits"] == 7


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
    with fork_isolated(recording=False):
        plain = Router(configs.firewall_config(), model).process_batch(packets)
    with fork_isolated(recording=True):
        traced = Router(configs.firewall_config(), model).process_batch(packets)
    assert [a for a, _ in plain] == [a for a, _ in traced]
    assert [p.serialize() for _, p in plain] == [p.serialize() for _, p in traced]


# ----------------------------------------------------------------------
# differential: telemetry on vs off is byte-identical (fig10 smoke)
# ----------------------------------------------------------------------
def _channel_wire_bytes(recording):
    with fork_isolated(recording=recording):
        tx = DataChannel(b"c" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
        items = [(VpnPacket(OP_DATA, 7, pid), make_payload(64)) for pid in range(1, 9)]
        return [p.serialize() for p in tx.protect_batch(items)]


def test_data_channel_bytes_identical_with_telemetry():
    assert _channel_wire_bytes(True) == _channel_wire_bytes(False)


def test_fig10_smoke_identical_with_telemetry():
    from repro.experiments import fig10_scalability

    def run(recording):
        with fork_isolated(recording=recording):
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
    # no wall-clock privileges: the registry must take an injected clock
    assert not determinism_exempt("repro.telemetry")
    assert not determinism_exempt("repro.telemetry.export")


def test_telemetry_package_lints_clean_with_zero_baselines():
    report = Analyzer().run(["src/repro/telemetry"])
    assert [f"{f.rule}:{f.path}:{f.line}" for f in report.findings] == []

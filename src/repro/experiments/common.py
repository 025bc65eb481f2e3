"""Shared experiment machinery: throughput probes, result schema, tables.

Every experiment module's ``run*()`` returns an :class:`ExperimentResult`
— one schema for all figures and tables — instead of a per-script result
shape.  The schema separates *what was measured* (``series``), *what the
paper reports* (``paper``), *scalar facts* (``metadata``), and an
optional :mod:`repro.telemetry` ``snapshot()`` taken around the run
(``telemetry``), so the runner, benchmarks and exporters consume every
experiment the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.fleet.deployment import FleetDeployment
from repro.netsim.traffic import UdpSink, UdpTrafficSource

#: display names matching the paper's legends
SETUP_LABELS = {
    "vanilla": "vanilla OpenVPN",
    "openvpn_click": "OpenVPN+Click",
    "endbox_sim": "EndBox SIM",
    "endbox_sgx": "EndBox SGX",
    "vanilla_click": "vanilla Click",
}


def measure_max_throughput(
    world: FleetDeployment,
    packet_bytes: int,
    offered_bps: float,
    duration: float = 0.08,
    warmup: float = 0.03,
    port: int = 5201,
) -> float:
    """Drive one saturating UDP flow through the tunnel; returns bps.

    An iperf-style measurement: offer more load than the pipeline can
    carry and count what arrives at the sink after a warm-up window.
    """
    client = world.clients[0]
    sink = UdpSink(world.internal, port)
    source = UdpTrafficSource(
        client.host, world.internal.address, port, rate_bps=offered_bps, packet_bytes=packet_bytes
    )
    source.start()
    world.sim.run(until=world.sim.now + warmup)
    sink.reset_window()
    world.sim.run(until=world.sim.now + duration)
    throughput = sink.window_throughput_bps()
    source.stop()
    return throughput


def measure_aggregate_throughput(
    world: FleetDeployment,
    n_clients: int,
    per_client_bps: float,
    packet_bytes: int = 1500,
    duration: float = 0.05,
    warmup: float = 0.03,
    base_port: int = 5300,
):
    """Fig 10 probe: every client offers ``per_client_bps``; returns
    (aggregate bps at the sinks, server CPU utilisation)."""
    sinks = []
    sources = []
    for index, client in enumerate(world.clients[:n_clients]):
        sink = UdpSink(world.internal, base_port + index)
        sinks.append(sink)
        source = UdpTrafficSource(
            client.host,
            world.internal.address,
            base_port + index,
            rate_bps=per_client_bps,
            packet_bytes=packet_bytes,
        )
        sources.append(source)
        source.start()
    world.sim.run(until=world.sim.now + warmup)
    for sink in sinks:
        sink.reset_window()
    world.server_host.cpu.reset_window()
    world.sim.run(until=world.sim.now + duration)
    aggregate = sum(sink.window_throughput_bps() for sink in sinks)
    cpu = world.server_host.cpu.utilisation()
    for source in sources:
        source.stop()
    return aggregate, cpu


# ----------------------------------------------------------------------
# result formatting
# ----------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def relative_error(measured: float, paper: float) -> str:
    """Signed percent difference vs the paper value, as text."""
    if paper == 0:
        return "n/a"
    return f"{100 * (measured - paper) / paper:+.0f}%"


def render_series_tables(
    title: str, series: Dict[str, Dict], paper: Dict[str, Dict], x_label: str, unit: str
) -> str:
    """Render measured-vs-paper tables, one block per series label."""
    blocks = [title]
    for label, points in series.items():
        headers = [x_label, f"paper [{unit}]", f"measured [{unit}]", "error"]
        rows = []
        for x, value in points.items():
            paper_value = paper.get(label, {}).get(x)
            rows.append(
                [
                    x,
                    f"{paper_value:.1f}" if paper_value is not None else "-",
                    f"{value:.1f}",
                    relative_error(value, paper_value) if paper_value else "n/a",
                ]
            )
        blocks.append(format_table(headers, rows, title=label))
    return "\n\n".join(blocks)


@dataclass
class ExperimentResult:
    """The common result schema every experiment ``run*()`` returns.

    * ``name`` — machine name (``"fig8"``), stable across releases;
    * ``title`` — the human heading the paper uses;
    * ``series`` — measured data, ``{series label: {x: value}}`` (a few
      experiments store richer point types, e.g. Fig 11's
      ``[(t, rtt | None), ...]`` lists);
    * ``paper`` — the published values in the same shape as ``series``;
    * ``metadata`` — scalar facts and derived quantities that are not a
      series (CPU columns, ratios, sample lists, pass/fail flags);
    * ``telemetry`` — a :meth:`repro.telemetry.Session.snapshot` of the
      run's simulators when the runner was invoked with ``--telemetry``;
    * ``text`` — the pre-rendered report block; :meth:`to_text` falls
      back to :func:`render_series_tables` when a module leaves it empty.
    """

    name: str
    title: str
    x_label: str = ""
    unit: str = ""
    series: Dict[str, Any] = field(default_factory=dict)
    paper: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)
    telemetry: Optional[dict] = None
    text: str = ""

    def to_text(self) -> str:
        """The report block: pre-rendered text or a generic series table."""
        if self.text:
            return self.text
        return render_series_tables(self.title, self.series, self.paper, self.x_label, self.unit)

"""CLI: run any or all experiments and emit the paper-vs-measured report.

Usage::

    endbox-experiments --list
    endbox-experiments fig8 table2
    endbox-experiments --all --quick -o results.md
    python -m repro.experiments fig10 --telemetry

``--quick`` shrinks sweeps (fewer sizes/client counts, shorter windows)
so the full suite finishes in a couple of minutes; the default settings
match what EXPERIMENTS.md records.

``--telemetry [DIR]`` wraps every experiment in a recording
:func:`repro.telemetry.session`, attaches the session's snapshot (the
registries of the experiment's simulators, summed) to each
:class:`~repro.experiments.common.ExperimentResult`, and writes a
``telemetry_<name>.json`` artifact per experiment (ecall/ocall
transition counts, EPC paging events, per-element Click timings, VPN
byte counters, link/queue occupancy).  The artifact holds only
simulated quantities, so two runs write the same bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro import telemetry
from repro.experiments.common import ExperimentResult


def _run_fig6(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import fig6_pageload

    return [fig6_pageload.run(n_pages=20 if quick else 60)]


def _run_fig7(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import fig7_redirection

    return [fig7_redirection.run()]


def _run_table1(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import table1_https_latency

    return [table1_https_latency.run(repeats=3 if quick else 5)]


def _run_fig8(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import fig8_packet_size

    sizes = (256, 1500, 16384) if quick else fig8_packet_size.SIZES
    return [fig8_packet_size.run(sizes=sizes, duration=0.04 if quick else 0.08)]


def _run_fig9(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import fig9_functions

    return [fig9_functions.run(duration=0.04 if quick else 0.08)]


def _run_fig10(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import fig10_scalability

    counts = (1, 20, 40, 60) if quick else fig10_scalability.CLIENT_COUNTS
    result_a = fig10_scalability.run_fig10a(counts=counts)
    b_counts = (30, 60) if quick else (1, 10, 20, 30, 40, 50, 60)
    result_b = fig10_scalability.run_fig10b(counts=b_counts)
    lines = []
    for use_case in ("LB", "FW", "IDPS", "DDoS"):
        ratio = fig10_scalability.speedup_at(result_b, 60, use_case)
        if ratio:
            lines.append(f"EndBox speedup at 60 clients, {use_case}: {ratio:.1f}x")
    result_b.text += (
        "\n\n" + "\n".join(lines) + "\n(paper: 2.6x across use cases, 3.8x for IDPS/DDoS)"
    )
    return [result_a, result_b]


def _run_table2(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import table2_reconfig

    return [table2_reconfig.run()]


def _run_fig11(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import fig11_reconfig_latency

    return [fig11_reconfig_latency.run()]


def _run_optimizations(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import optimizations

    return [optimizations.run()]


def _run_ablation_consensus(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import ablation_consensus

    sizes = (5, 20) if quick else ablation_consensus.FLEET_SIZES
    return [ablation_consensus.run(fleet_sizes=sizes)]


def _run_fleet_rollout(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import fleet_rollout

    spec = fleet_rollout.fleet_rollout_spec(
        n_clients=600 if quick else 10_000, gateways=4
    )
    return [fleet_rollout.run_fleet_rollout(spec=spec)]


def _run_ablation_epc(quick: bool) -> List[ExperimentResult]:
    from repro.experiments import ablation_epc

    sizes = (8, 120, 256) if quick else ablation_epc.HEAP_SIZES_MB
    return [ablation_epc.run(heap_sizes_mb=sizes)]


EXPERIMENTS: Dict[str, Callable[[bool], List[ExperimentResult]]] = {
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "table1": _run_table1,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "table2": _run_table2,
    "fig11": _run_fig11,
    "optimizations": _run_optimizations,
    "ablation-consensus": _run_ablation_consensus,
    "ablation-epc": _run_ablation_epc,
    "fleet-rollout": _run_fleet_rollout,
}


def run_experiment(
    name: str, quick: bool = False, with_telemetry: bool = False
) -> List[ExperimentResult]:
    """Run one named experiment; returns its :class:`ExperimentResult` list.

    With ``with_telemetry`` the whole run executes inside a recording
    :func:`repro.telemetry.session`, which collects the registry of every
    Simulator the experiment builds, and the session snapshot is
    attached to each result's ``telemetry`` field.
    """
    runner = EXPERIMENTS[name]
    if not with_telemetry:
        return runner(quick)
    with telemetry.session(recording=True, label=name) as collected:
        results = runner(quick)
    snapshot = collected.snapshot()
    for result in results:
        result.telemetry = snapshot
    return results


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="endbox-experiments",
        description="Reproduce the EndBox (DSN'18) evaluation tables and figures.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment names (see --list)")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--quick", action="store_true", help="smaller sweeps, faster runs")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument("-o", "--output", help="also write the report to this file")
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="record telemetry and write telemetry_<name>.json into DIR (default: cwd)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = list(EXPERIMENTS) if args.all or not args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)} (see --list)")

    sections = []
    for name in names:
        started = time.time()
        print(f"== running {name} ...", file=sys.stderr, flush=True)
        results = run_experiment(name, quick=args.quick, with_telemetry=args.telemetry is not None)
        elapsed = time.time() - started
        print(f"== {name} done in {elapsed:.1f}s", file=sys.stderr, flush=True)
        if args.telemetry is not None and results:
            artifact = os.path.join(args.telemetry, f"telemetry_{name}.json")
            telemetry.write_json(
                results[0].telemetry, artifact, meta={"experiment": name, "quick": args.quick}
            )
            print(f"== telemetry written to {artifact}", file=sys.stderr, flush=True)
        text = "\n\n".join(result.to_text() for result in results)
        sections.append(f"## {name}\n\n```\n{text}\n```\n")
    report = "\n".join(sections)
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

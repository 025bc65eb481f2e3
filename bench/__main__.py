"""CLI: measure the workloads, or compare two result documents.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, also when a child crashed.
With one ``--workload`` the metric names are plain (``pkts_per_s``);
with several they are prefixed by the workload
(``small_uplink.pkts_per_s``).  The exit code is 0 only when every
correctness check passed, and 2, with no result printed, when there is
no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List

from bench import ROOT
from bench.metrics import (
    END_TO_END,
    PER_LAYER,
    attempted_failed,
    digest_failures,
    end_to_end,
    layer_failures,
    per_layer,
    traffic_failures,
)
from bench.workloads import WORKLOADS

#: fresh children per untraced measurement
CHILDREN = 3
#: slices of the window each child measures; the median is taken over
#: the slices of all children
SLICES = 50
QUICK_SLICES = 5
QUICK_SECONDS = 0.1
#: set-up-only children per untraced measurement, each with its own seed
#: derived from --seed: set-up time depends on the seed (the CA key's
#: prime search; one set-up ranges over 3x across seeds), and the median
#: over several seeds keeps one unlucky seed from deciding setup_s
SETUPS = 7
QUICK_SETUPS = 1
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A child interpreter failed or produced no result."""


def benchmark_config() -> Dict[str, Any]:
    """The repository's ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one request in a fresh interpreter and wait for its result."""
    # a fixed hash seed keeps dict layouts, and with them timings, alike
    # from one child to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(request)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{request['workload']}: child ran past {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{request['workload']}: child exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def slice_seconds(name: str, seconds: float, slices: int) -> float:
    """Sim seconds per slice: whole send periods, about ``seconds`` of wall in all."""
    workload = WORKLOADS[name]
    periods = max(1, round(seconds * workload.pace / (slices * workload.period_s)))
    return periods * workload.period_s


def measure(name: str, seed: str, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """Measure one workload; returns its metrics and check results.

    Untraced, :data:`SETUPS` children time a cold set-up each, then
    :data:`CHILDREN` fresh children run the same window and their slices
    pool into one median.  Traced, one untraced and one traced child run
    that window.
    """
    slices = QUICK_SLICES if quick else SLICES
    request = dict(
        workload=name,
        seed=seed,
        slices=slices,
        slice_s=slice_seconds(name, QUICK_SECONDS if quick else seconds, CHILDREN * slices),
        traced=False,
        warm=False,
    )
    if trace:
        plain = spawn(dict(request, warm=True))
        traced = spawn(dict(request, traced=True))
        runs = [plain, traced]
        metrics = per_layer(plain, traced, WORKLOADS[name].packet_bytes)
        units = PER_LAYER
        failures = layer_failures(traced)
    else:
        setups = [
            spawn(dict(workload=name, seed=f"{seed}/setup-{index}", setup_only=True))
            for index in range(QUICK_SETUPS if quick else SETUPS)
        ]
        runs = [spawn(request) for _ in range(CHILDREN)]
        metrics = end_to_end(runs, setups)
        units = END_TO_END
        failures = []
    failures.extend(digest_failures(runs))
    attempted = failed = 0
    for run in runs:
        failures.extend(traffic_failures(run))
        run_attempted, run_failed = attempted_failed(run)
        attempted += run_attempted
        failed += run_failed
    return {
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "window_sim_s": runs[0]["window_sim_s"],
        "metrics": {key: {"value": value, "unit": units[key][0]} for key, value in metrics.items()},
    }


def print_result(name: str, result: Dict[str, Any]) -> None:
    """Human-readable block for one workload."""
    print(f"{name}  (window {result['window_sim_s']:.4g} sim-s)")
    for key, metric in result["metrics"].items():
        print(f"  {key:<34} {metric['value']:>14.6g}  {metric['unit']}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"  checks: {verdict} ({result['failed']} of {result['attempted']} datagrams failed)")
    for failure in result["failures"]:
        print(f"    - {failure}")


def summary_line(
    runs: List[Dict[str, Dict[str, Any]]], single: bool, crashed: bool
) -> Dict[str, Any]:
    """The final JSON object: checks over every run, metrics of the last.

    Metric names are plain when ``single`` (one workload measured) and
    prefixed by the workload otherwise.  A measurement whose child
    ``crashed`` counts as one attempted and one failed, and what was
    measured before it is still reported.
    """
    last = runs[-1] if runs else {}
    metrics = {}
    for name, result in last.items():
        for key, metric in result["metrics"].items():
            metrics[key if single else f"{name}.{key}"] = metric
    results = [result for run in runs for result in run.values()]
    return {
        "correct": not crashed and all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results) + crashed,
        "failed": sum(result["failed"] for result in results) + crashed,
        "metrics": metrics,
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    """The command line (see the module docstring)."""
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description="end-to-end DeploymentSpec benchmark"
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="measure only this workload (repeatable; default: all)")
    parser.add_argument("--seed", default="bench", help="traffic and world seed")
    # BENCHMARK.json's command is run as `--workload W --seed N --seconds
    # <run_seconds> --trace 0|1`, so both take a value; --seconds falls
    # back to run_seconds and a bare --trace means 1
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds the untraced windows of a workload take together "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 (or bare --trace): per-layer metrics from traced runs")
    parser.add_argument("--quick", action="store_true", help="tiny windows (for tests)")
    parser.add_argument("--repeat", type=int, default=1, help="measure everything N times")
    parser.add_argument("--json", metavar="OUT", help="write every run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --json documents against BENCHMARK.json bounds")
    args = parser.parse_args(argv)
    if args.repeat < 1 or (args.seconds is not None and not args.seconds > 0):
        parser.error("--repeat and --seconds must be positive")
    return args


def main(argv=None) -> int:
    """Entry point; see the module docstring for the exit code."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        from bench.compare import compare

        return compare(args.compare[0], args.compare[1], benchmark_config())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    config = benchmark_config()
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    names = args.workload or list(WORKLOADS)
    runs: List[Dict[str, Dict[str, Any]]] = []
    crashed = False
    try:
        for _ in range(args.repeat):
            results: Dict[str, Dict[str, Any]] = {}
            runs.append(results)
            for name in names:
                results[name] = measure(name, args.seed, seconds, bool(args.trace), args.quick)
                print_result(name, results[name])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        crashed = True
    if args.json:
        document = {
            "seed": args.seed,
            "seconds": seconds,
            "quick": args.quick,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "crashed": crashed,
            "runs": runs,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    line = summary_line(runs, single=len(names) == 1, crashed=crashed)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""``python3 -m bench --compare A.json B.json``.

A is the reference (the parent commit), B the candidate.  For every
(workload, metric) both documents carry, this prints each side's median
and quartiles across its runs.  For a metric with a bound in
``BENCHMARK.json`` it also prints how much worse B's median is than A's,
as a share of A's median, against that bound:

* ``REGRESSED`` — worse by more than the bound (the exit code is 1);
* ``unresolved`` — one side's quartile spread, as a share of its median,
  is wider than the bound, so the medians cannot settle it — unless
  every run of B reads better than every run of A;
* ``ok`` — neither.
"""

from __future__ import annotations

import json
from statistics import median, quantiles
from typing import Dict, List, Tuple

Key = Tuple[str, str]


def load_values(path: str) -> Dict[Key, List[float]]:
    """(workload, metric) -> the value of every run in a ``--json`` document."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[Key, List[float]] = {}
    for run in document["runs"]:
        for workload, result in run.items():
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def worse_share(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[float, str]:
    """(worse share of the medians, verdict word) for one bounded metric."""
    qa, qb = quartiles(a), quartiles(b)
    worse = worse_share(qa[1], qb[1], better)
    wide = any(abs(q[2] - q[0]) > bound * abs(q[1]) for q in (qa, qb))
    if worse > bound:
        return worse, "REGRESSED"
    if wide:
        b_wins = min(b) > max(a) if better == "higher" else max(b) < min(a)
        return worse, "ok" if b_wins else "unresolved"
    return worse, "ok"


def compare(path_a: str, path_b: str, config: dict) -> int:
    """Print the comparison; 1 when any bound is breached, else 0."""
    bounds = {entry["name"]: (entry["bound"], entry["better"]) for entry in config["end_to_end"]}
    a, b = load_values(path_a), load_values(path_b)
    breached = False
    print(f"A = {path_a} ({len(next(iter(a.values()), []))} runs), "
          f"B = {path_b} ({len(next(iter(b.values()), []))} runs)")
    print(f"{'workload':<20} {'metric':<32} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
          f" {'worse':>8} {'bound':>6}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (qa, qb)]
        line = f"{workload:<20} {metric:<32} {cells[0]:>30} {cells[1]:>30}"
        if metric in bounds:
            bound, better = bounds[metric]
            worse, word = verdict(a[key], b[key], better, bound)
            breached = breached or word == "REGRESSED"
            line += f" {worse:>+8.1%} {bound:>6.0%}  {word}"
        print(line)
    return 1 if breached else 0

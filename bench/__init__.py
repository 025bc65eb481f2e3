"""End-to-end benchmark: UDP through real ``DeploymentSpec`` worlds.

Run from the repository root::

    python3 -m bench [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
                     [--quick] [--repeat N] [--json OUT]
    python3 -m bench --compare A.json B.json

Every workload runs in fresh child interpreters (:mod:`bench.child`),
one at a time; this process only spawns them, checks their results and
prints the metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the repository root (``BENCHMARK.json`` and ``src/`` live here)
ROOT = Path(__file__).resolve().parent.parent


def use_source_tree() -> None:
    """Put the repository's ``src`` first on ``sys.path``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

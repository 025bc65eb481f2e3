"""Simulation determinism lint (DET4xx).

Reproducibility of every experiment rests on two conventions: simulated
time comes only from the sim clock (``sim.now`` /
:class:`~repro.sgx.trusted_time.TrustedTime`), and randomness only from
:class:`~repro.sim.randomness.SeededRng` (or an explicitly seeded
``random.Random``).  Wall-clock reads, OS entropy, and the *global*
``random`` module all break replayability — the global stream also
perturbs every existing consumer whenever a new caller appears.

* **DET401** — wall-clock time in simulation-domain code
  (``time.time``, ``datetime.now``, ...).
* **DET402** — OS entropy (``os.urandom``, any ``secrets.*`` call except
  the entropy-free ``secrets.compare_digest``, ``uuid.uuid1/4``,
  ``random.SystemRandom``).
* **DET403** — module-level ``random.*`` call (the shared global stream);
  seeded ``random.Random(...)`` instances are fine.
* **DET404** — environment-dependent behaviour (``os.environ`` reads,
  ``os.getenv``): results silently change between machines/shells, so
  simulation code must take configuration as explicit arguments.

The simulation domain is the ``repro`` package plus the ``benchmarks/``
and ``examples/`` trees — scripts there drive the same deterministic
simulations.  Genuinely host-side code (the experiment runner's
human-facing elapsed time, this linter, the pytest-benchmark harness)
is exempted via :data:`~repro.analysis.trustmap.DETERMINISM_ALLOWLIST`
and :data:`~repro.analysis.trustmap.DETERMINISM_PATH_ALLOWLIST`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.engine import Checker, ModuleInfo
from repro.analysis.findings import Finding, Severity
from repro.analysis.trustmap import (
    determinism_exempt,
    determinism_exempt_path,
    simulation_domain_path,
)

WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

OS_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: the one ``secrets`` member that draws no entropy (constant-time
#: comparison); everything else in the module is an OS entropy source.
SECRETS_MODULE_OK = frozenset({"secrets.compare_digest"})

#: environment reads: flagged as attribute access (``os.environ[...]``,
#: ``os.environ.get``) and as calls (``os.getenv``).
ENVIRON_ATTRS = frozenset({"os.environ", "os.environb"})
ENVIRON_CALLS = frozenset({"os.getenv", "os.getenvb"})

#: the only members of the global ``random`` module that are fine to
#: call: constructing an explicitly seeded, private generator.
GLOBAL_RANDOM_OK = frozenset({"random.Random"})


class DeterminismChecker(Checker):
    name = "determinism"
    rules = {
        "DET401": "wall-clock time in simulation-domain code (use the sim clock)",
        "DET402": "OS entropy in simulation-domain code (use sim.randomness.SeededRng)",
        "DET403": "global random-module call in simulation-domain code (use SeededRng)",
        "DET404": "os.environ-dependent behaviour in simulation-domain code",
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Determinism findings for one simulation-domain module."""
        in_library = module.module == "repro" or module.module.startswith("repro.")
        if not in_library and not simulation_domain_path(module.path):
            return []  # scripts outside the library and the sim dirs
        if determinism_exempt(module.module) or determinism_exempt_path(module.path):
            return []
        imports = module.imports
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                origin = imports.resolve(node)
                if origin in ENVIRON_ATTRS:
                    findings.append(
                        self.finding(
                            "DET404",
                            Severity.ERROR,
                            module,
                            node,
                            f"{origin} read makes behaviour depend on the host "
                            "environment; pass configuration explicitly",
                        )
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            origin = imports.resolve(node.func)
            if origin is None:
                continue
            if origin in ENVIRON_CALLS:
                findings.append(
                    self.finding(
                        "DET404",
                        Severity.ERROR,
                        module,
                        node,
                        f"{origin}() makes behaviour depend on the host "
                        "environment; pass configuration explicitly",
                    )
                )
            elif origin in WALL_CLOCK_CALLS:
                findings.append(
                    self.finding(
                        "DET401",
                        Severity.ERROR,
                        module,
                        node,
                        f"{origin}() reads the wall clock; simulation code must use "
                        "the sim clock (sim.now / TrustedTime)",
                    )
                )
            elif origin in OS_ENTROPY_CALLS or (
                origin.startswith("secrets.")
                and origin.count(".") == 1
                and origin not in SECRETS_MODULE_OK
            ):
                findings.append(
                    self.finding(
                        "DET402",
                        Severity.ERROR,
                        module,
                        node,
                        f"{origin}() draws OS entropy; simulation code must use "
                        "repro.sim.randomness.SeededRng",
                    )
                )
            elif (
                origin.startswith("random.")
                and origin.count(".") == 1
                and origin not in GLOBAL_RANDOM_OK
            ):
                findings.append(
                    self.finding(
                        "DET403",
                        Severity.ERROR,
                        module,
                        node,
                        f"{origin}() uses the process-global random stream; derive a "
                        "namespaced generator from SeededRng instead",
                    )
                )
        return findings

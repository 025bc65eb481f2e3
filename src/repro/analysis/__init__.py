"""endbox-lint: static analysis for the EndBox reproduction's invariants.

The paper's security argument (§V-A) and this repo's reproducibility
story rest on properties the runtime checks only dynamically, if at all.
This package makes them machine-checked on every tree:

* **Enclave-boundary isolation** (:mod:`~repro.analysis.checkers.boundary`):
  untrusted code must reach enclave state only through
  ``EnclaveGateway.ecall``/``ocall`` — never by importing enclave
  internals or touching ``trusted_state``/``_private`` attributes.
* **Determinism** (:mod:`~repro.analysis.checkers.determinism`):
  simulation-domain code must draw time from the sim clock and
  randomness from :class:`~repro.sim.randomness.SeededRng`, never from
  ``time.time``/``datetime.now``/``os.urandom``/module-level ``random``.
* **Gateway interface audit** (:mod:`~repro.analysis.checkers.interface`):
  every ocall needs an Iago return-value validator and boundary
  crossings that carry data must declare ``payload_bytes`` so Fig-8
  cost accounting cannot silently erode.
* **Click-graph validation** (:mod:`~repro.analysis.checkers.clickgraph`):
  the shipped configurations must have valid port arities, no cycles,
  and no unreachable elements — checked offline here with the same
  validator that runs at config load before a reconfiguration commits
  (:mod:`repro.click.graphcheck`, which lives with the runtime so no
  deployment imports the linter).
* **Secret-flow analysis** (:mod:`~repro.analysis.checkers.taint`):
  interprocedural dataflow from registered secret sources
  (:mod:`~repro.analysis.secrets` — key schedules, private scalars,
  session secrets, sealing keys) into untrusted sinks (ocall arguments,
  trace/log events, exception messages, packet payloads, artifact
  writers), cut only by declared sanitizers or explicit
  ``declassify`` annotations.
* **Shard safety and view lifetimes**
  (:mod:`~repro.analysis.checkers.ownership`): sim-driven code must not
  mutate process-global state, and no function may let a
  ``memoryview`` over a reused buffer escape.

The taint and ownership passes share one
:class:`~repro.analysis.callgraph.CallGraph` per run.  Run it as
``python -m repro.analysis src/`` (or ``make lint``); see README.md for
the baseline workflow.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import CallGraph
from repro.analysis.dataflow import Summary, TaintAnalysis
from repro.analysis.engine import (
    AnalysisReport,
    Analyzer,
    Checker,
    ModuleInfo,
    analyze_paths,
    analyze_source,
)
from repro.analysis.findings import Finding, Severity, Waiver, inline_rules
from repro.analysis.trustmap import TrustDomain, trust_domain

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "Baseline",
    "CallGraph",
    "Checker",
    "Finding",
    "ModuleInfo",
    "Severity",
    "Summary",
    "TaintAnalysis",
    "TrustDomain",
    "Waiver",
    "analyze_paths",
    "analyze_source",
    "inline_rules",
    "trust_domain",
]

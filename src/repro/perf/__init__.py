"""Wall-clock micro-harness for the batched fast path.

Times the scalar and burst forms of the hot-path layers — the enclave
gateway crossing, the data channel, the simulator core — while
asserting that the burst paths are observably equivalent to the scalar
ones (same verdicts, same bytes, same ledger totals
modulo the documented transition discount).  Results serialise to the
machine-readable ``BENCH_micro.json`` that ``make bench`` emits.

Run with::

    PYTHONPATH=src python -m repro.perf --json BENCH_micro.json
"""

from repro.perf.micro import StageResult, format_report, run_all

__all__ = ["StageResult", "format_report", "run_all"]

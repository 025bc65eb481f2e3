"""``python -m repro.analysis`` — the endbox-lint CLI.

Examples::

    python -m repro.analysis src/                 # all passes, text report
    python -m repro.analysis src/ --format=json   # machine-readable
    python -m repro.analysis src/ --rules EB103,DET401
    python -m repro.analysis src/ --write-baseline lint-baseline.json
    python -m repro.analysis --list-rules

Exit status: 0 when no unbaselined findings remain, 1 when findings are
reported, 2 on usage errors, 3 when ``--budget`` is exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline, BaselineError, DEFAULT_BASELINE_NAME
from repro.analysis.checkers import all_rules, default_checkers
from repro.analysis.engine import Analyzer
from repro.analysis.reporting import render_json, render_sarif, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endbox-lint",
        description="Static analysis of the EndBox reproduction's invariants "
        "(enclave boundary, determinism, gateway interface, Click graphs).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to scan (default: src/ plus benchmarks/ and "
        "examples/ where present, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline suppression file (default: ./{DEFAULT_BASELINE_NAME} if it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report everything)",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings as a baseline file and exit 0",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="R1,R2",
        help="only report these comma-separated rule ids; a prefix selects "
        "the whole family (e.g. --rules SS, --rules TF5)",
    )
    parser.add_argument(
        "--sarif-out",
        default=None,
        metavar="FILE",
        help="additionally write a SARIF report to FILE (independent of --format)",
    )
    parser.add_argument(
        "--budget",
        default=None,
        type=float,
        metavar="SECONDS",
        help="fail (exit 3) when the analysis itself takes longer than "
        "SECONDS of wall time — a CI latency gate",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule id with its description and exit",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also show baselined findings in text output",
    )
    return parser


def _resolve_baseline(args: argparse.Namespace) -> Baseline:
    if args.no_baseline:
        return Baseline()
    if args.baseline is not None:
        return Baseline.load(Path(args.baseline))
    default = Path(DEFAULT_BASELINE_NAME)
    if default.is_file():
        return Baseline.load(default)
    return Baseline()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in all_rules().items():
            print(f"{rule}  {description}")
        return 0

    if args.paths:
        paths = args.paths
    elif Path("src").is_dir():
        # the library plus the simulation-domain script trees (the
        # determinism pass covers benchmarks/ and examples/ too)
        paths = ["src"] + [d for d in ("benchmarks", "examples") if Path(d).is_dir()]
    else:
        paths = ["."]
    for path in paths:
        if not Path(path).exists():
            parser.error(f"no such file or directory: {path}")
    try:
        baseline = _resolve_baseline(args)
    except (BaselineError, OSError) as exc:
        parser.error(str(exc))
    # the linter is on the DETERMINISM_ALLOWLIST: this is host tooling
    # wall time, gating CI latency, never simulation state
    started = time.perf_counter() if args.budget is not None else 0.0
    report = Analyzer(checkers=default_checkers(), baseline=baseline).run(paths)
    elapsed = time.perf_counter() - started if args.budget is not None else 0.0

    if args.rules is not None:
        tokens = {rule.strip() for rule in args.rules.split(",") if rule.strip()}
        known = set(all_rules())
        unknown = {
            token
            for token in tokens
            if token not in known and not any(rule.startswith(token) for rule in known)
        }
        if unknown:
            parser.error(
                f"unknown rule(s)/famil(ies): {', '.join(sorted(unknown))} (see --list-rules)"
            )
        report.findings = [
            finding
            for finding in report.findings
            if any(finding.rule == token or finding.rule.startswith(token) for token in tokens)
        ]

    if args.write_baseline is not None:
        Baseline.from_findings(
            report.findings, note="baselined by --write-baseline; justify or fix"
        ).save(Path(args.write_baseline))
        print(
            f"wrote {args.write_baseline} suppressing {len(report.findings)} finding(s)",
            file=sys.stderr,
        )
        return 0

    if args.sarif_out is not None:
        Path(args.sarif_out).write_text(render_sarif(report) + "\n")
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, verbose=args.verbose))
    if args.budget is not None and elapsed > args.budget:
        print(
            f"endbox-lint: budget exceeded: {elapsed:.2f}s > {args.budget:.2f}s",
            file=sys.stderr,
        )
        return 3
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())

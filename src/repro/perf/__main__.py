"""CLI: run the micro-harness and emit ``BENCH_micro.json``."""

from __future__ import annotations

import argparse

from repro import telemetry
from repro.perf.micro import format_report, run_all, write_json


def main() -> int:
    """Run the harness; exit 0 unless an equivalence check fails."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="time scalar vs batched hot paths and assert equivalence",
    )
    parser.add_argument("--json", metavar="PATH", default=None, help="write results as JSON")
    parser.add_argument("-n", type=int, default=12_800, help="packets per stage")
    parser.add_argument("--burst", type=int, default=32, help="packets per batched crossing")
    parser.add_argument("--payload", type=int, default=64, help="UDP payload bytes")
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="enable recording instruments and write the telemetry snapshot as JSON",
    )
    parser.add_argument(
        "--shards",
        nargs="*",
        type=int,
        metavar="N",
        default=None,
        help="run only the sharded-runner stage (optionally at these shard counts)",
    )
    args = parser.parse_args()
    if args.shards is not None:
        from repro.perf.micro import bench_sim_shards

        counts = tuple(args.shards) or (1, 2, 4, 8)
        stage = bench_sim_shards(shard_counts=counts)
        print(f"{'config':<22} {'modeled events/s':>18}")
        print("-" * 42)
        print(f"{'serial engine':<22} {stage.scalar_ops_per_s:>18,.0f}")
        for count in counts:
            rate = stage.detail[f"shards_{count}_modeled_events_per_s"]
            match = "ok" if stage.detail[f"digest_match_{count}"] else "MISMATCH"
            print(f"{f'{count} shard(s)':<22} {rate:>18,.0f}  digest {match}")
        print(
            f"speedup (headline): {stage.speedup:.2f}x   "
            f"cpu_count={int(stage.detail['cpu_count'])}"
        )
        if args.json:
            write_json({"stages": [stage.to_dict()]}, args.json)
            print(f"wrote {args.json}")
        return 0 if all(stage.detail[f"digest_match_{c}"] for c in counts) else 1
    doc = run_all(
        n=args.n,
        burst=args.burst,
        payload_bytes=args.payload,
        record_telemetry=args.telemetry is not None,
    )
    print(format_report(doc))
    if args.json:
        write_json(doc, args.json)
        print(f"wrote {args.json}")
    if args.telemetry:
        telemetry.write_json(doc["telemetry"], args.telemetry, meta={"harness": "perf.micro"})
        print(f"wrote {args.telemetry}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

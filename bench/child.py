"""One measured world per interpreter.

``python -m bench.child '<request json>'`` prints one JSON line: the raw
measurements of :func:`bench.workloads.run_world` for the request, or of
:func:`bench.workloads.run_setup` when the request is ``setup_only``.
"""

from __future__ import annotations

import json
import sys

from bench import use_source_tree


def main(argv) -> int:
    """Serve one request; the result is the last line of stdout."""
    request = json.loads(argv[0])
    use_source_tree()
    from bench.workloads import WORKLOADS, run_setup, run_world

    workload = WORKLOADS[request["workload"]]
    if request.get("setup_only"):
        result = run_setup(workload, request["seed"])
    else:
        result = run_world(
            workload,
            request["seed"],
            request["slices"],
            request["slice_s"],
            traced=request["traced"],
            warm=request["warm"],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

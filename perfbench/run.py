"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics with every wrapper off;
``--trace 1`` repeats the same run with timing wrappers around each layer's
public calls and reports the per-layer metrics (the spans are written to
``.perfbench/`` when the run ends).  The line before the result is a JSON
``env`` record: interpreter, library versions, core count, the workload's
parameters and service config, sample counts beyond each percentile, and
collector activity, and the ``wall_clock`` figures (latency percentiles,
closed-loop throughput, write latency), which are reported but not gated.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.config import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    from perfbench.bench import run

    try:
        env, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, STARTED)
    except Exception:  # noqa: BLE001 - report and exit without waiting on service threads
        traceback.print_exc()
        sys.stderr.flush()
        os._exit(3)
    print(json.dumps({"env": env}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

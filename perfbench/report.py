"""Run every workload untraced and traced, and print every metric by name.

    python3 perfbench/report.py [--seed 1]

Every workload in ``BENCHMARK.json`` runs at its ``run_seconds``.  Each
table row is one workload; columns are metrics with their units: the gated
end-to-end ones and the wall-clock figures (untraced run) first, then the
per-layer ones (traced run).
The last table gives the tracing overhead: traced minus untraced
``latency_p50_ms``.  Exits non-zero if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLUMNS_PER_TABLE = 6
WALL_UNITS = {
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "saturated_rps": "1/s", "saturated_cpu_ms": "ms",
    "write_p50_ms": "ms", "write_p90_ms": "ms", "write_cpu_p50_ms": "ms",
}


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} (trace {trace}) printed no result:\n{completed.stderr[-2000:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def _table(title: str, rows: dict[str, dict[str, dict]]) -> None:
    names: list[str] = []
    for metrics in rows.values():
        names.extend(name for name in metrics if name not in names)
    for offset in range(0, len(names), COLUMNS_PER_TABLE):
        chunk = names[offset: offset + COLUMNS_PER_TABLE]
        units = {name: next(m[name]["unit"] for m in rows.values() if name in m) for name in chunk}
        header = ["workload", *(f"{name} ({units[name]})" for name in chunk)]
        body = [
            [workload, *(f"{metrics[name]['value']:.4g}" if name in metrics else "-" for name in chunk)]
            for workload, metrics in rows.items()
        ]
        widths = [max(len(row[i]) for row in (header, *body)) for i in range(len(header))]
        print(f"\n{title}" if offset == 0 else "")
        for row in (header, *body):
            print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    end_to_end: dict[str, dict] = {}
    wall_clock: dict[str, dict] = {}
    per_layer: dict[str, dict] = {}
    overhead: dict[str, dict] = {}
    correct = True
    for workload in workloads:
        env, untraced = _run(workload, args.seed, seconds, 0)
        _, traced = _run(workload, args.seed, seconds, 1)
        correct &= untraced["correct"] and traced["correct"]
        wall = env["wall_clock"]
        end_to_end[workload] = untraced["metrics"]
        wall_clock[workload] = {
            **{name: {"value": value, "unit": WALL_UNITS[name]} for name, value in wall.items()},
            "failed": {"value": untraced["failed"], "unit": "count"},
            "attempted": {"value": untraced["attempted"], "unit": "count"},
            "cpu_steal": {"value": env["cpu_steal_share"], "unit": "ratio"},
        }
        per_layer[workload] = traced["metrics"]
        base = wall["latency_p50_ms"]
        delta = traced["metrics"]["trace.latency_p50_ms"]["value"] - base
        overhead[workload] = {
            "untraced_p50": {"value": base, "unit": "ms"},
            "traced_p50": {"value": base + delta, "unit": "ms"},
            "overhead": {"value": delta, "unit": "ms"},
            "overhead_share": {"value": delta / base if base else 0.0, "unit": "ratio"},
        }
    print(f"seed {args.seed}, {seconds:g} s per run; environment: "
          f"{ {k: env[k] for k in ('nproc', 'python', 'numpy')} }")
    _table("End-to-end metrics, gated by BENCHMARK.json bounds (untraced runs)", end_to_end)
    _table("Wall-clock end-to-end figures, reported but not gated (untraced runs)", wall_clock)
    _table("Per-layer metrics (traced runs)", per_layer)
    _table("Tracing overhead (traced minus untraced latency_p50_ms)", overhead)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

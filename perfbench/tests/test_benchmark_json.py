"""BENCHMARK.json agrees with the workload definitions and the metrics emitted."""

import json
import re
from pathlib import Path

from perfbench import bench
from perfbench.config import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_each_workload_states_its_rate_and_latency_limit():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        spec = WORKLOADS[workload["name"]]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert f"{spec.rate_rps:g} req/s" in workload["why"]
        assert f"limit {spec.limit_ms:g} ms" in workload["why"]


def test_metric_lists_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())

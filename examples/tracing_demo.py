#!/usr/bin/env python
"""Tracing demo: watch a request cross every pipeline stage.

Builds the paper's full setup (HTAP system, trained router, populated
knowledge base, simulated LLM), turns on the :mod:`repro.obs` tracer, and
demonstrates:

1. a traced cold request — the nested span tree shows all six stages
   (``htap.parse/optimize/execute``, ``pipeline.encode/retrieve/generate``)
   plus the micro-batcher hop (``router.embed_batch`` re-parented under
   the submitting request's ``pipeline.encode`` span),
2. a warm repeat — a two-span trace tagged ``cache=l1_hit``,
3. slow-trace exemplar retention in the bounded ``TraceStore``,
4. the pooled per-stage latency breakdown across all traced requests,
5. Prometheus-style text exposition merging service metrics with the
   tracer's own per-stage histograms,
6. the JSON-lines trace log consumed by the ``repro-trace`` CLI,
7. the embedded admin HTTP server: a service started with
   ``admin_port=0`` scraping its own ``/metrics``, ``/healthz``, and
   ``/slo`` endpoints over HTTP.

Run with:  python examples/tracing_demo.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.explainer import entries_from_labeled
from repro.htap import HTAPSystem
from repro.knowledge import KnowledgeBase
from repro.llm import SimulatedLLM
from repro.obs import (
    Sampler,
    TraceLogWriter,
    merged_exposition,
    stage_durations,
    traced,
)
from repro.obs.cli import breakdown_rows, render_trace_tree
from repro.router import SmartRouter
from repro.service import ExplanationService, ServiceConfig
from repro.workloads import SimulatedExpert, build_paper_dataset


def main() -> None:
    print("Building the HTAP system, router, and knowledge base...")
    system = HTAPSystem(scale_factor=100)
    dataset = build_paper_dataset(
        system, knowledge_base_size=20, test_size=12, router_training_size=120
    )
    router = SmartRouter(system.catalog)
    router.fit(dataset.router_training, epochs=20)
    knowledge_base = KnowledgeBase()
    knowledge_base.add_many(entries_from_labeled(dataset.knowledge_base, router, SimulatedExpert()))

    log_path = Path(tempfile.mkdtemp(prefix="repro-obs-")) / "traces.jsonl"
    sqls = [labeled.sql for labeled in dataset.test]

    with traced(writer=TraceLogWriter(log_path)) as tracer:
        with ExplanationService(
            system, router, knowledge_base, SimulatedLLM(),
            config=ServiceConfig(max_workers=4),
        ) as service:
            # ------------------------------------------- 1. one cold request
            print("\nTracing one cold request...")
            assert service.explain(sqls[0]).ok
            cold = tracer.store.recent(1)[0]
            print(render_trace_tree(cold.to_dict()))

            # ------------------------------------------------ 2. warm repeat
            warm_result = service.explain(sqls[0])
            assert warm_result.ok and warm_result.cache_hit
            warm = tracer.store.recent(1)[0]
            print("Warm repeat of the same query:")
            print(render_trace_tree(warm.to_dict()))

            # ------------------------------- 3. a concurrent traced workload
            print(f"Serving {len(sqls)} more requests from 4 concurrent clients...")
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(service.explain, sqls))
            assert all(result.ok for result in results)

        store_stats = tracer.store.stats()
        slowest = tracer.store.slowest(3)
        print(f"\nTrace store: {store_stats['added']} traces added, "
              f"{store_stats['slow_retained']} slow exemplars retained, "
              f"{store_stats['recent_retained']} in the recent ring")
        print("Slowest traces:")
        for trace in slowest:
            print(f"  {trace.trace_id}  {trace.duration_seconds * 1e3:8.3f} ms  "
                  f"{len(trace.spans)} spans")

        # --------------------------------------- 4. per-stage breakdown
        pooled = stage_durations(tracer.store.traces())
        print("\nPer-stage latency (pooled over all traced requests):")
        for row in breakdown_rows([t.to_dict() for t in tracer.store.traces()]):
            print(f"  {row['stage']:<24} n={row['count']:<4} "
                  f"p50={row['p50 ms']:8.3f} ms  p95={row['p95 ms']:8.3f} ms  "
                  f"share={row['share']}")
        assert "pipeline.generate" in pooled

        # ------------------------------------ 5. Prometheus exposition
        exposition = merged_exposition(service.metrics_snapshot(), tracer.stage_snapshot())
        stage_lines = [line for line in exposition.splitlines()
                       if line.startswith("repro_stage_") and "quantile" not in line]
        print(f"\nPrometheus exposition: {len(exposition.splitlines())} lines; "
              "per-stage series include:")
        for line in stage_lines[:6]:
            print(f"  {line}")

    # ------------------------------------------------ 6. repro-trace CLI
    print(f"\nJSON-lines trace log written to {log_path}")
    print("Inspect it with:  repro-trace show "
          f"{log_path} --slowest   (or: repro-trace breakdown {log_path})")

    # ------------------------------------------- 7. embedded admin server
    print("\nStarting a service with an embedded admin server (admin_port=0)...")
    with traced(sampler=Sampler(head_probability=1.0, slow_threshold_seconds=0.05)):
        with ExplanationService(
            system, router, knowledge_base, SimulatedLLM(),
            config=ServiceConfig(max_workers=4, admin_port=0),
        ) as service:
            for sql in sqls[:4]:
                assert service.explain(sql).ok
            base = service.admin.url
            print(f"Admin endpoints live at {base}")

            with urllib.request.urlopen(base + "/metrics", timeout=5) as response:
                metrics = response.read().decode()
            interesting = [line for line in metrics.splitlines()
                           if line.startswith(("repro_sampler_", "repro_slo_",
                                               "repro_store_traces_"))]
            print(f"Self-scrape of /metrics ({len(metrics.splitlines())} lines):")
            for line in interesting[:8]:
                print(f"  {line}")

            with urllib.request.urlopen(base + "/healthz", timeout=5) as response:
                health = json.loads(response.read())
            print(f"/healthz: ok={health['ok']} "
                  f"({', '.join(check['name'] for check in health['checks'])})")

            with urllib.request.urlopen(base + "/slo", timeout=5) as response:
                slo = json.loads(response.read())
            for objective in slo["objectives"]:
                burn = max(window["burn_rate"] for window in objective["windows"].values())
                print(f"/slo: {objective['name']:<16} met={objective['met']} "
                      f"worst burn rate={burn:.3f}")
    print("\nDone.")


if __name__ == "__main__":
    main()

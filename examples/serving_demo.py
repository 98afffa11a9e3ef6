#!/usr/bin/env python
"""Serving demo: the explanation pipeline behind a concurrent front-end.

Builds the paper's full setup (HTAP system, trained router, populated
knowledge base, simulated LLM), then wraps it in the new
:class:`~repro.service.server.ExplanationService` and demonstrates:

1. a 32-way concurrent burst over a repeating workload — zero errors,
2. the multi-level cache: warm requests orders of magnitude faster,
3. micro-batched router inference coalescing concurrent encodes,
4. cache invalidation on DDL (create_index) and on knowledge-base writes,
5. graceful load shedding when the in-flight budget is exhausted.

Run with:  python examples/serving_demo.py
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.explainer import entries_from_labeled
from repro.htap import HTAPSystem
from repro.knowledge import KnowledgeBase
from repro.llm import SimulatedLLM
from repro.router import SmartRouter
from repro.service import ExplanationService, ServiceConfig
from repro.workloads import SimulatedExpert, build_paper_dataset


def main() -> None:
    print("Building the HTAP system, router, and knowledge base...")
    system = HTAPSystem(scale_factor=100)
    dataset = build_paper_dataset(
        system, knowledge_base_size=20, test_size=24, router_training_size=120
    )
    router = SmartRouter(system.catalog)
    router.fit(dataset.router_training, epochs=20)
    knowledge_base = KnowledgeBase()
    knowledge_base.add_many(entries_from_labeled(dataset.knowledge_base, router, SimulatedExpert()))

    service = ExplanationService(
        system, router, knowledge_base, SimulatedLLM(),
        config=ServiceConfig(max_workers=8, max_in_flight=128),
    )
    sqls = [labeled.sql for labeled in dataset.test]

    # ------------------------------------------------- 1. concurrent burst
    workload = [sqls[i % len(sqls)] for i in range(96)]
    print(f"\nServing {len(workload)} requests from 32 concurrent clients...")
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=32) as pool:
        results = list(pool.map(service.explain, workload))
    elapsed = time.perf_counter() - start
    errors = sum(not result.ok for result in results)
    hits = sum(result.cache_hit for result in results)
    print(f"  {len(results)} served in {elapsed:.2f}s "
          f"({len(results) / elapsed:.0f} req/s), errors={errors}, cache hits={hits}")

    # ------------------------------------------------------- 2. warm cache
    cold_sql = sqls[0]
    start = time.perf_counter()
    warm = service.explain(cold_sql)
    warm_seconds = time.perf_counter() - start
    print(f"\nWarm repeat of a served query: cache_hit={warm.cache_hit}, "
          f"{warm_seconds * 1e6:.0f} us end-to-end")

    # --------------------------------------------------- 3. micro-batching
    batching = service.batcher.stats()
    print(f"\nMicro-batcher: {batching['requests']:.0f} encodes in "
          f"{batching['batches']:.0f} batches "
          f"(mean batch size {batching['mean_batch_size']:.2f}, "
          f"{batching['coalesced_requests']:.0f} forward passes saved)")

    # ------------------------------------------------ 4. cache invalidation
    print("\nDDL invalidation: CREATE INDEX ON customer(c_phone)...")
    service.create_index("customer", "c_phone")
    after_ddl = service.explain(cold_sql)
    print(f"  same query after DDL: cache_hit={after_ddl.cache_hit} "
          "(plans re-derived under the new index)")

    entry = knowledge_base.entries()[0]
    knowledge_base.correct(entry.entry_id, "Expert-corrected explanation text.")
    after_write = service.explain(cold_sql)
    print(f"  same query after a KB correction: cache_hit={after_write.cache_hit}, "
          f"plan_cache_hit={after_write.plan_cache_hit} "
          "(explanations evicted, plans kept)")

    # ----------------------------------------------------- 5. load shedding
    print("\nLoad shedding with a tiny in-flight budget:")
    with ExplanationService(
        system, router, knowledge_base, SimulatedLLM(),
        config=ServiceConfig(max_workers=1, max_in_flight=2),
    ) as tiny:
        futures = [tiny.submit(sqls[i % len(sqls)]) for i in range(10)]
        outcomes = [future.result() for future in futures]
    shed = [outcome for outcome in outcomes if not outcome.ok]
    print(f"  burst of {len(outcomes)} -> {len(outcomes) - len(shed)} served, "
          f"{len(shed)} shed with typed {shed[0].error.code.value!r} rejections"
          if shed else "  nothing shed")

    # ------------------------------------------------------------ telemetry
    snapshot = service.metrics_snapshot()
    cold_latency = snapshot["latency.cold_seconds"]
    print("\nTelemetry snapshot:")
    print(f"  requests ok/submitted: {snapshot['requests.ok']}/{snapshot['requests.submitted']}")
    print(f"  cold latency p50/p95/p99: {cold_latency['p50'] * 1e3:.2f} / "
          f"{cold_latency['p95'] * 1e3:.2f} / {cold_latency['p99'] * 1e3:.2f} ms")
    print(f"  explanation cache: {snapshot['cache']['explanations']['hit_rate']:.0%} hit rate")
    print(f"  plan cache:        {snapshot['cache']['plans']['hit_rate']:.0%} hit rate")

    service.shutdown()
    print("\nDone.")


if __name__ == "__main__":
    main()

"""Concrete :class:`~repro.bench.runner.ExperimentStrategy` suites.

Each strategy wraps an existing experiment — the harness methods the
pytest benchmarks already exercise, plus the serving layer — and reshapes
its observations into the runner's metric model so ``repro-bench run`` can
export one ``BENCH_<suite>.json`` per suite:

* ``latency`` — per-stage explanation latency over a test-set sample
  (encode / search / LLM thinking / LLM generation / total);
* ``router`` — tree-CNN routing accuracy, inference latency series, and
  model footprint;
* ``kb_scaling`` — flat vs HNSW search latency across KB sizes (the
  scenario axis from the TPC-H exemplar: one workload shape per store ×
  size point);
* ``service_throughput`` — cold/concurrent/warm phases against a live
  :class:`~repro.service.server.ExplanationService`, with cache hit rates
  and batching stats pulled from :mod:`repro.service.metrics` snapshots;
* ``stage_breakdown`` — per-stage latency (parse / optimize / execute /
  encode / retrieve / generate) of cold served requests, measured from
  the tracing subsystem's span trees (:mod:`repro.obs.tracing`) rather
  than ad-hoc timers, so the committed baseline also regression-tests
  the instrumentation itself;
* ``cold_path`` — the vectorized encode/retrieve hot path in isolation:
  uncached end-to-end request latency plus the encode and retrieve stage
  series, with the featurize/forward split and the kernel-batch counters
  pulled from span attributes;
* ``obs_overhead`` — the observability tax on the warm serve path:
  per-request latency with tracing off, fully traced, and 1%
  head-sampled, plus ``overhead_ratio.*`` scalars gating that the
  instrumentation stays cheap and sampling keeps it near-free;
* ``kb_contention`` — retrieval latency on one flat
  :class:`~repro.knowledge.knowledge_base.KnowledgeBase` while a writer
  thread bulk-ingests entries, plus an equivalence check
  (``topk_mismatch_errors``) of default and tenant top-k against a
  brute-force numpy reference.

This module imports :mod:`repro.service` and is therefore *not* re-exported
from ``repro.bench.__init__`` — the serving layer itself depends on
:mod:`repro.bench.stats`, and keeping strategies out of the package
``__init__`` keeps that dependency acyclic.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.bench.harness import ExperimentHarness
from repro.bench.runner import (
    ExperimentConfig,
    ExperimentContext,
    ExperimentStrategy,
    RunResult,
)
from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import DEFAULT_TENANT, KnowledgeBase
from repro.service.config import ServiceConfig
from repro.service.server import ExplanationService

#: Harness scales the CLI can build.  ``quick`` mirrors the reduced harness
#: the unit tests use (same code paths, ~seconds to build) and is what CI
#: and the committed baselines run; ``paper`` is the full experimental
#: scale of the pytest benchmark suite.
PROFILES: dict[str, dict[str, Any]] = {
    "quick": {
        "knowledge_base_size": 12,
        "test_size": 40,
        "router_training_size": 60,
        "router_epochs": 8,
    },
    "paper": {},
}


def build_harness(profile: str) -> ExperimentHarness:
    try:
        overrides = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}") from None
    return ExperimentHarness(**overrides)


def harness_config(harness: ExperimentHarness) -> dict[str, Any]:
    """The init parameters that define an experimental setup (for export)."""
    return {
        "scale_factor": harness.scale_factor,
        "knowledge_base_size": harness.knowledge_base_size,
        "test_size": harness.test_size,
        "router_training_size": harness.router_training_size,
        "router_epochs": harness.router_epochs,
        "top_k": harness.top_k,
        "seed": harness.seed,
    }


class LatencyBreakdownStrategy(ExperimentStrategy):
    """E7 as a suite: per-stage latency series over a test-set sample."""

    name = "latency"

    def __init__(self, sample_size: int = 24):
        self.sample_size = sample_size

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=3, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sample = context.harness.dataset.test[: self.sample_size]
        if not sample:
            raise ValueError("test set is empty; cannot measure latency")
        context.state["sample"] = sample

    def execute(self, context: ExperimentContext) -> RunResult:
        harness = context.harness
        profiles = [
            harness.explainer.explain_execution(labeled.execution).latency
            for labeled in context.state["sample"]
        ]
        return RunResult(
            metrics={
                "encode_seconds": [profile.encode_seconds for profile in profiles],
                "search_seconds": [profile.search_seconds for profile in profiles],
                "llm_thinking_seconds": [profile.llm_thinking_seconds for profile in profiles],
                "llm_generation_seconds": [profile.llm_generation_seconds for profile in profiles],
                "total_seconds": [profile.total_seconds for profile in profiles],
            },
            counters={"explanations": len(profiles)},
            operations=len(profiles),
        )


class RouterInferenceStrategy(ExperimentStrategy):
    """E10 as a suite: routing accuracy plus an inference-latency series."""

    name = "router"

    def __init__(self, sample_size: int = 40):
        self.sample_size = sample_size

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=3, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sample = context.harness.dataset.test[: self.sample_size]
        if not sample:
            raise ValueError("test set is empty; cannot benchmark the router")
        context.state["sample"] = sample

    def execute(self, context: ExperimentContext) -> RunResult:
        harness = context.harness
        sample = context.state["sample"]
        timings = [
            harness.router.route(labeled.execution.plan_pair).inference_seconds
            for labeled in sample
        ]
        return RunResult(
            metrics={
                "inference_seconds": timings,
                "routing_accuracy": harness.router.accuracy(sample),
                "model_size_bytes": float(harness.router.model_size_bytes()),
                "parameter_count": float(harness.router.parameter_count()),
            },
            counters={"routed": len(sample)},
            operations=len(sample),
        )


class KBScalingStrategy(ExperimentStrategy):
    """E11 as a suite: flat vs HNSW search latency per KB-size point."""

    name = "kb_scaling"

    def __init__(self, sizes: tuple[int, ...] = (20, 200, 1000), k: int = 2, queries_per_point: int = 20):
        self.sizes = sizes
        self.k = k
        # kb_scaling() averages over (up to) 20 test-set query vectors.
        self.queries_per_point = queries_per_point

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=2, warmup_runs=1)

    def execute(self, context: ExperimentContext) -> RunResult:
        rows = context.harness.kb_scaling(sizes=self.sizes, k=self.k)
        metrics: dict[str, float] = {
            f"search_ms.{row.store}.n{row.kb_size}": row.search_ms for row in rows
        }
        return RunResult(
            metrics=metrics,
            counters={"store_size_points": len(rows)},
            operations=len(rows) * self.queries_per_point,
        )


class ServiceThroughputStrategy(ExperimentStrategy):
    """The serving layer under load: cold, concurrent, then warm phases.

    Each run drives a *fresh* :class:`ExplanationService` so warm-cache
    numbers measure this run's cache, not a previous run's.  Cache hit
    rates and batching stats come from the service's own metrics snapshot.
    """

    name = "service_throughput"

    def __init__(
        self,
        concurrency: int = 16,
        distinct_queries: int = 12,
        total_requests: int = 48,
        max_workers: int = 8,
    ):
        self.concurrency = concurrency
        self.distinct_queries = distinct_queries
        self.total_requests = total_requests
        self.max_workers = max_workers

    def default_config(self) -> ExperimentConfig:
        # Two pooled runs plus a warmup: a single unwarmed sample made the
        # compare gate pure noise (every p50 was one measurement of a cold
        # process), which is exactly what the runner's pooling exists to fix.
        return ExperimentConfig(runs=2, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sqls = [labeled.sql for labeled in context.harness.dataset.test[: self.distinct_queries]]
        if len(sqls) < 2:
            raise ValueError("need at least two distinct test queries")
        context.state["sqls"] = sqls

    def execute(self, context: ExperimentContext) -> RunResult:
        harness = context.harness
        sqls: list[str] = context.state["sqls"]
        service = ExplanationService(
            harness.system, harness.router, harness.knowledge_base, harness.llm,
            config=ServiceConfig(
                top_k=harness.top_k,
                max_workers=self.max_workers,
                max_in_flight=self.total_requests + self.concurrency,
            ),
        )
        try:
            # Phase A — cold, sequential, over *half* the distinct queries:
            # the other half arrives cold during the concurrent phase so the
            # micro-batcher actually gets concurrent encodes to coalesce.
            cold_seconds: list[float] = []
            for sql in sqls[: max(1, len(sqls) // 2)]:
                start = time.perf_counter()
                result = service.explain(sql)
                cold_seconds.append(time.perf_counter() - start)
                if not result.ok:
                    raise RuntimeError(f"cold request failed: {result.error}")

            # Phase B — concurrent repeating workload, half warm, half cold.
            workload = [sqls[i % len(sqls)] for i in range(self.total_requests)]
            concurrent_start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=self.concurrency) as pool:
                results = list(pool.map(service.explain, workload))
            concurrent_seconds = time.perf_counter() - concurrent_start
            errors = sum(not result.ok for result in results)
            cache_hits = sum(result.cache_hit for result in results)

            # Phase C — warm, sequential.
            warm_seconds: list[float] = []
            for sql in sqls:
                start = time.perf_counter()
                result = service.explain(sql)
                warm_seconds.append(time.perf_counter() - start)
                if not (result.ok and result.cache_hit):
                    raise RuntimeError("warm request missed the explanation cache")

            snapshot = service.metrics_snapshot()
            cache_stats = snapshot["cache"]["explanations"]
            mean_cold = sum(cold_seconds) / len(cold_seconds)
            mean_warm = sum(warm_seconds) / len(warm_seconds)
            operations = len(cold_seconds) + len(warm_seconds) + len(results)
            return RunResult(
                metrics={
                    "cold_seconds": cold_seconds,
                    "warm_seconds": warm_seconds,
                    "concurrent_qps": len(results) / concurrent_seconds,
                    "warm_speedup": mean_cold / mean_warm if mean_warm > 0 else 0.0,
                    "explanation_hit_rate": cache_stats["hit_rate"],
                    "mean_batch_size": snapshot["batching"]["mean_batch_size"],
                },
                counters={
                    "requests": operations,
                    "concurrent_requests": len(results),
                    "errors": errors,
                    "cache_hits": cache_hits,
                    "shed": snapshot.get("requests.shed", 0),
                },
                operations=operations,
            )
        finally:
            service.shutdown()


class StageBreakdownStrategy(ExperimentStrategy):
    """Per-stage latency of cold served requests, read from span trees.

    Each run installs a fresh enabled :class:`~repro.obs.tracing.Tracer`
    and drives a fresh :class:`ExplanationService` (fresh caches, so every
    request walks the full cold path), then pools every span duration by
    stage name.  The exported ``stage_seconds.<stage>`` series therefore
    double as a regression gate on the instrumentation: a stage that stops
    emitting spans fails the run outright.
    """

    name = "stage_breakdown"

    #: The six serve-path stages every cold request must traverse.
    STAGES: tuple[str, ...] = (
        "htap.parse",
        "htap.optimize",
        "htap.execute",
        "pipeline.encode",
        "pipeline.retrieve",
        "pipeline.generate",
    )

    def __init__(self, requests: int = 12, max_workers: int = 4):
        self.requests = requests
        self.max_workers = max_workers

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=2, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sqls = [labeled.sql for labeled in context.harness.dataset.test[: self.requests]]
        if not sqls:
            raise ValueError("test set is empty; cannot trace served requests")
        context.state["sqls"] = sqls

    def execute(self, context: ExperimentContext) -> RunResult:
        from repro.obs.store import TraceStore, stage_durations
        from repro.obs.tracing import traced

        harness = context.harness
        sqls: list[str] = context.state["sqls"]
        store = TraceStore(max_slow=4, max_recent=len(sqls) + 4)
        with traced(store=store):
            service = ExplanationService(
                harness.system, harness.router, harness.knowledge_base, harness.llm,
                config=ServiceConfig(top_k=harness.top_k, max_workers=self.max_workers),
            )
            try:
                request_seconds: list[float] = []
                for sql in sqls:
                    start = time.perf_counter()
                    result = service.explain(sql)
                    request_seconds.append(time.perf_counter() - start)
                    if not result.ok:
                        raise RuntimeError(f"traced request failed: {result.error}")
            finally:
                service.shutdown()
        traces = store.traces()
        pooled = stage_durations(traces)
        missing = [stage for stage in self.STAGES if not pooled.get(stage)]
        if missing:
            raise RuntimeError(f"stages missing from traces: {', '.join(missing)}")
        metrics: dict[str, Any] = {"request_seconds": request_seconds}
        for stage in self.STAGES:
            metrics[f"stage_seconds.{stage}"] = pooled[stage]
        return RunResult(
            metrics=metrics,
            counters={
                "traced_requests": len(traces),
                "spans": sum(len(trace.spans) for trace in traces),
            },
            operations=len(sqls),
        )


class ColdPathStrategy(ExperimentStrategy):
    """The uncached encode/retrieve hot path, isolated and span-verified.

    Every request in every run is cold: each run drives a fresh
    :class:`ExplanationService` (fresh caches) over distinct SQL, so the
    ``uncached_seconds`` series measures the full parse → optimize →
    execute → encode → retrieve → generate path with no cache shortcuts.
    The encode and retrieve stage series come from the span trees, and the
    ``router.embed_batch`` / ``kb.search`` span attributes supply the
    featurize/forward split and the batched-kernel accounting — so the
    committed baseline gates both the speed of the vectorized kernels and
    the instrumentation that proves they ran.
    """

    name = "cold_path"

    #: The hot-path stages this suite gates; missing spans fail the run.
    STAGES: tuple[str, ...] = ("pipeline.encode", "pipeline.retrieve")

    def __init__(self, requests: int = 16, max_workers: int = 4):
        self.requests = requests
        self.max_workers = max_workers

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=2, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sqls = [labeled.sql for labeled in context.harness.dataset.test[: self.requests]]
        if not sqls:
            raise ValueError("test set is empty; cannot measure the cold path")
        context.state["sqls"] = sqls

    def execute(self, context: ExperimentContext) -> RunResult:
        from repro.obs.store import TraceStore, stage_durations
        from repro.obs.tracing import traced

        harness = context.harness
        sqls: list[str] = context.state["sqls"]
        store = TraceStore(max_slow=4, max_recent=len(sqls) + 4)
        with traced(store=store):
            service = ExplanationService(
                harness.system, harness.router, harness.knowledge_base, harness.llm,
                config=ServiceConfig(top_k=harness.top_k, max_workers=self.max_workers),
            )
            try:
                uncached_seconds: list[float] = []
                for sql in sqls:
                    start = time.perf_counter()
                    result = service.explain(sql)
                    uncached_seconds.append(time.perf_counter() - start)
                    if not result.ok:
                        raise RuntimeError(f"cold request failed: {result.error}")
                    if result.cache_hit or result.plan_cache_hit:
                        raise RuntimeError(f"request was not cold: {sql!r}")
            finally:
                service.shutdown()
        traces = store.traces()
        pooled = stage_durations(traces)
        missing = [stage for stage in self.STAGES if not pooled.get(stage)]
        if missing:
            raise RuntimeError(f"stages missing from traces: {', '.join(missing)}")
        featurize: list[float] = []
        forward: list[float] = []
        kernel_batches = 0
        vectors_scored = 0
        for trace in traces:
            for span in trace.find("router.embed_batch"):
                featurize.append(float(span.attributes.get("featurize_seconds", 0.0)))
                forward.append(float(span.attributes.get("forward_seconds", 0.0)))
            for span in trace.find("kb.search"):
                kernel_batches += int(span.attributes.get("kernel_batches", 0))
                vectors_scored += int(span.attributes.get("vectors_scored", 0))
        if not featurize:
            raise RuntimeError("no router.embed_batch spans carried featurization timings")
        metrics: dict[str, Any] = {
            "uncached_seconds": uncached_seconds,
            "featurize_seconds": featurize,
            "forward_seconds": forward,
        }
        for stage in self.STAGES:
            metrics[f"stage_seconds.{stage}"] = pooled[stage]
        return RunResult(
            metrics=metrics,
            counters={
                "traced_requests": len(traces),
                "kernel_batches": kernel_batches,
                "vectors_scored": vectors_scored,
            },
            operations=len(sqls),
        )


class ObsOverheadStrategy(ExperimentStrategy):
    """What tracing costs on the warm serve path — and what sampling saves.

    Three passes over the same warm workload, each against a fresh
    :class:`ExplanationService` primed so every measured request hits the
    explanation cache (the fast path, where fixed per-request overhead is
    proportionally largest):

    * ``off`` — tracing disabled (the default no-op tracer);
    * ``traced`` — every request fully traced at 100%;
    * ``sampled`` — 1% head sampling, so almost every trace is dropped at
      the root and children cost near-zero.

    The ``overhead_ratio.traced`` / ``overhead_ratio.sampled`` scalars are
    the p50 warm latency of each mode over the ``off`` mode; the committed
    baseline gates that full tracing stays cheap and that head sampling
    keeps the tax near 1.0×.  Sampler kept/dropped counters ride along so
    the baseline also proves the sampler actually dropped the traces it
    claims to.
    """

    name = "obs_overhead"

    MODES: tuple[str, ...] = ("off", "traced", "sampled")

    def __init__(
        self,
        distinct_queries: int = 8,
        warm_requests: int = 64,
        head_probability: float = 0.01,
        max_workers: int = 4,
    ):
        self.distinct_queries = distinct_queries
        self.warm_requests = warm_requests
        self.head_probability = head_probability
        self.max_workers = max_workers

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=2, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        sqls = [labeled.sql for labeled in context.harness.dataset.test[: self.distinct_queries]]
        if not sqls:
            raise ValueError("test set is empty; cannot measure tracing overhead")
        context.state["sqls"] = sqls

    def _drive(self, context: ExperimentContext) -> list[float]:
        """Prime a fresh service cold, then time the warm workload."""
        harness = context.harness
        sqls: list[str] = context.state["sqls"]
        service = ExplanationService(
            harness.system, harness.router, harness.knowledge_base, harness.llm,
            config=ServiceConfig(top_k=harness.top_k, max_workers=self.max_workers),
        )
        try:
            for sql in sqls:
                result = service.explain(sql)
                if not result.ok:
                    raise RuntimeError(f"priming request failed: {result.error}")
            warm_seconds: list[float] = []
            for i in range(self.warm_requests):
                sql = sqls[i % len(sqls)]
                start = time.perf_counter()
                result = service.explain(sql)
                warm_seconds.append(time.perf_counter() - start)
                if not (result.ok and result.cache_hit):
                    raise RuntimeError("warm request missed the explanation cache")
            return warm_seconds
        finally:
            service.shutdown()

    def execute(self, context: ExperimentContext) -> RunResult:
        from statistics import median

        from repro.obs.sampling import Sampler
        from repro.obs.store import TraceStore
        from repro.obs.tracing import traced

        series: dict[str, list[float]] = {}
        series["off"] = self._drive(context)

        with traced(store=TraceStore(max_recent=self.warm_requests + 16)):
            series["traced"] = self._drive(context)

        sampler = Sampler(
            head_probability=self.head_probability,
            slow_threshold_seconds=None,
        )
        with traced(store=TraceStore(), sampler=sampler):
            series["sampled"] = self._drive(context)

        baseline = median(series["off"])
        if baseline <= 0:
            raise RuntimeError("warm baseline latency collapsed to zero")
        metrics: dict[str, Any] = {
            f"warm_seconds.{mode}": series[mode] for mode in self.MODES
        }
        metrics["overhead_ratio.traced"] = median(series["traced"]) / baseline
        metrics["overhead_ratio.sampled"] = median(series["sampled"]) / baseline
        operations = sum(len(values) for values in series.values())
        return RunResult(
            metrics=metrics,
            counters={
                "requests_per_mode": self.warm_requests,
                "sampler_kept": sampler.kept,
                "sampler_dropped": sampler.dropped,
            },
            operations=operations,
        )


#: Tenant ``kb_contention`` writes shadowing and private entries to, and
#: how many: half reuse shared ids, half are private to the tenant.
_CHECK_TENANT = "bench-tenant"
_CHECK_TENANT_ENTRIES = 48


def brute_force_topk(
    entries: list[KnowledgeEntry], query: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Reference top-k ``(entry_id, distance)``: exact cosine distance to
    every entry, ranked by ``(distance, entry_id)``."""
    if not entries:
        return []
    matrix = np.array([entry.embedding for entry in entries], dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query)
    distances = 1.0 - (matrix @ query) / norms
    ranked = sorted(zip(distances.tolist(), (entry.entry_id for entry in entries)))
    return [(entry_id, distance) for distance, entry_id in ranked[:k]]


class KBContentionStrategy(ExperimentStrategy):
    """Retrieval on one flat :class:`KnowledgeBase` under a bulk writer.

    Two phases per run:

    * **Equivalence** (no writer): every query's top-k, in the default
      view and in a tenant view whose namespace shadows some shared ids and
      adds private entries, must equal a brute-force numpy reference in
      ordered ids — any difference increments ``topk_mismatch_errors``,
      which the compare gate holds at exactly zero.
    * **Contention**: time retrieval while a writer thread bulk-ingests
      batches of entries (the expert feedback loop importing corrections)
      and removes the oldest extras to bound growth.  Each ``add_many``
      holds the knowledge base's one write lock for its whole batch, so
      ``retrieve_seconds`` is what a reader pays for that lock.
      ``tenant_retrieve_seconds`` times the tenant view under the same
      writer: the shadow-aware merge of the tenant's namespace with the
      shared corpus.
    """

    name = "kb_contention"

    def __init__(
        self,
        entry_pool: int = 480,
        queries: int = 24,
        timed_retrievals: int = 100,
        k: int = 5,
        writer_batch: int = 48,
        writer_pause_seconds: float = 0.001,
        max_extra_entries: int = 96,
    ):
        self.entry_pool = entry_pool
        self.queries = queries
        self.timed_retrievals = timed_retrievals
        self.k = k
        self.writer_batch = writer_batch
        self.writer_pause_seconds = writer_pause_seconds
        self.max_extra_entries = max_extra_entries

    def default_config(self) -> ExperimentConfig:
        return ExperimentConfig(runs=3, warmup_runs=1)

    def setup(self, context: ExperimentContext) -> None:
        base = context.harness.knowledge_base.entries()
        if not base:
            raise ValueError("harness knowledge base is empty")
        rng = np.random.default_rng(context.harness.seed)
        dim = base[0].embedding.shape[0]

        def jittered(index: int, entry_id: str, scale: float) -> Any:
            source = base[index % len(base)]
            return dataclasses.replace(
                source,
                entry_id=entry_id,
                embedding=source.embedding + rng.normal(0.0, scale, size=dim),
            )

        context.state["entries"] = [
            jittered(i, f"kbbench-{i}", 0.05) for i in range(self.entry_pool)
        ]
        # Even-numbered tenant entries shadow a shared id with a new
        # embedding; odd-numbered ones are private to the tenant.
        context.state["tenant_entries"] = [
            jittered(i, f"kbbench-{i}" if i % 2 == 0 else f"tenant-{i}", 0.05)
            for i in range(_CHECK_TENANT_ENTRIES)
        ]
        context.state["queries"] = [
            base[i % len(base)].embedding + rng.normal(0.0, 0.1, size=dim)
            for i in range(self.queries)
        ]
        # The writer thread's jitter comes from its own seeded stream.
        context.state["writer_rng_seed"] = int(rng.integers(0, 2**31))

    # ----------------------------------------------------------- equivalence
    def _check_equivalence(self, context: ExperimentContext) -> int:
        shared = context.state["entries"]
        private = context.state["tenant_entries"]
        kb = KnowledgeBase()
        kb.add_many(shared)
        kb.add_many(private, tenant=_CHECK_TENANT)
        private_ids = {entry.entry_id for entry in private}
        tenant_view = private + [entry for entry in shared if entry.entry_id not in private_ids]
        mismatches = 0
        for query in context.state["queries"]:
            for tenant, view in ((DEFAULT_TENANT, shared), (_CHECK_TENANT, tenant_view)):
                hits = kb.retrieve(query, k=self.k, tenant=tenant).hits
                expected = [entry_id for entry_id, _ in brute_force_topk(view, query, self.k)]
                if [hit.entry.entry_id for hit in hits] != expected:
                    mismatches += 1
        return mismatches

    # ------------------------------------------------------------ contention
    def _timed_phase(
        self, context: ExperimentContext
    ) -> tuple[dict[str, list[float]], int]:
        """Default-view, then tenant-view, retrieval latencies under a
        bulk-ingesting writer thread."""
        entries = context.state["entries"]
        queries = context.state["queries"]
        kb = KnowledgeBase()
        kb.add_many(entries)
        kb.add_many(context.state["tenant_entries"], tenant=_CHECK_TENANT)
        rng = np.random.default_rng(context.state["writer_rng_seed"])
        dim = entries[0].embedding.shape[0]
        stop = threading.Event()
        writes = 0

        def writer() -> None:
            nonlocal writes
            live: list[str] = []
            serial = 0
            while not stop.is_set():
                batch = []
                for _ in range(self.writer_batch):
                    source = entries[serial % len(entries)]
                    batch.append(
                        dataclasses.replace(
                            source,
                            entry_id=f"writer-{serial}",
                            embedding=source.embedding + rng.normal(0.0, 0.05, size=dim),
                        )
                    )
                    serial += 1
                kb.add_many(batch)
                live.extend(entry.entry_id for entry in batch)
                writes += len(batch)
                while len(live) > self.max_extra_entries:
                    kb.remove(live.pop(0))
                    writes += 1
                if self.writer_pause_seconds:
                    time.sleep(self.writer_pause_seconds)

        # Warm both retrieval paths before the writer starts.
        for tenant in (DEFAULT_TENANT, _CHECK_TENANT) * 3:
            kb.retrieve(queries[0], k=self.k, tenant=tenant)
        thread = threading.Thread(target=writer, name="kb-writer", daemon=True)
        thread.start()
        series: dict[str, list[float]] = {}
        try:
            for name, tenant in (
                ("retrieve_seconds", DEFAULT_TENANT),
                ("tenant_retrieve_seconds", _CHECK_TENANT),
            ):
                latencies = series[name] = []
                for i in range(self.timed_retrievals):
                    query = queries[i % len(queries)]
                    start = time.perf_counter()
                    kb.retrieve(query, k=self.k, tenant=tenant)
                    latencies.append(time.perf_counter() - start)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        return series, writes

    def execute(self, context: ExperimentContext) -> RunResult:
        mismatches = self._check_equivalence(context)
        series, writes = self._timed_phase(context)
        return RunResult(
            metrics=series,
            counters={
                "topk_mismatch_errors": mismatches,
                "equivalence_queries": 2 * len(context.state["queries"]),
                "writer_ops": writes,
            },
            operations=2 * (self.timed_retrievals + len(context.state["queries"])),
        )


def build_suites(
    only: tuple[str, ...] | None = None,
) -> dict[str, ExperimentStrategy]:
    """The suite registry, optionally filtered to the requested names."""
    strategies: tuple[ExperimentStrategy, ...] = (
        LatencyBreakdownStrategy(),
        RouterInferenceStrategy(),
        KBScalingStrategy(),
        ServiceThroughputStrategy(),
        StageBreakdownStrategy(),
        ColdPathStrategy(),
        ObsOverheadStrategy(),
        KBContentionStrategy(),
    )
    registry = {strategy.name: strategy for strategy in strategies}
    if only is None:
        return registry
    unknown = sorted(set(only) - set(registry))
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; available: {sorted(registry)}")
    return {name: registry[name] for name in registry if name in only}


def config_overrides(runs: int | None, warmup_runs: int | None, base: ExperimentConfig) -> ExperimentConfig:
    """Apply CLI ``--runs`` / ``--warmups`` overrides onto a default config."""
    merged = asdict(base)
    if runs is not None:
        merged["runs"] = runs
    if warmup_runs is not None:
        merged["warmup_runs"] = warmup_runs
    return ExperimentConfig(**merged)

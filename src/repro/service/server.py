"""ExplanationService — the concurrent serving front-end of the pipeline.

Wraps ``HTAPSystem + SmartRouter + KnowledgeBase + LLMClient`` behind a
production-shaped request path:

* **admission control** — a bounded in-flight budget; when it is exhausted,
  new requests are shed with a typed ``QUEUE_FULL`` rejection instead of an
  exception or an unbounded queue;
* **multi-level caching** — an L1 explanation cache (normalized-SQL +
  user-notes key) served synchronously at admission, and an L2 plan /
  embedding cache that lets repeated SQL skip parse → optimize → execute →
  encode (see :mod:`repro.service.cache`); both are invalidated
  automatically on DDL and knowledge-base writes via the listener hooks on
  :class:`~repro.htap.system.HTAPSystem` and
  :class:`~repro.knowledge.knowledge_base.KnowledgeBase`;
* **micro-batched router inference** — cold requests encode through the
  :class:`~repro.service.batching.MicroBatcher`, so concurrent encodes run
  as one stacked forward pass;
* **worker pool + deadlines** — a ``ThreadPoolExecutor`` drives the
  remaining stages; a request whose latency budget expires while queued is
  completed with ``DEADLINE_EXCEEDED`` rather than doing dead work;
* **multi-tenancy** — every request carries a ``tenant``: retrieval runs
  in that tenant's namespace of the one
  :class:`~repro.knowledge.knowledge_base.KnowledgeBase` (its own entries
  plus the shared corpus), with tenant-scoped cache levels and
  fingerprints, per-tenant quotas (``QUOTA_EXCEEDED`` rejections), and
  weighted fair batching;
* **telemetry** — counters and p50/p95/p99 latency histograms exported as
  one dict by :meth:`ExplanationService.metrics_snapshot`;
* **admin plane** — with ``ServiceConfig(admin_port=...)`` the service
  starts an embedded :class:`~repro.obs.server.AdminServer` serving
  ``/metrics`` (Prometheus text), ``/healthz`` / ``/readyz`` (typed health
  checks via :meth:`ExplanationService.health_report`), ``/traces`` (the
  live tracer's retained traces), and ``/slo`` (burn-rate evaluation of
  the default objectives).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.explainer.pipeline import Explanation, RagExplainer, execution_result_text
from repro.htap.catalog import Index
from repro.htap.system import HTAPSystem, QueryExecution
from repro.knowledge.knowledge_base import DEFAULT_TENANT, KnowledgeBase
from repro.llm.client import LLMClient
from repro.obs.tracing import NULL_SPAN, Span, get_tracer
from repro.router.router import SmartRouter
from repro.service.api import (
    ExplainRequest,
    ExplainResult,
    RequestStatus,
    ServiceErrorCode,
)
from repro.service.batching import MicroBatcher
from repro.service.cache import ServiceCache
from repro.service.config import ServiceConfig
from repro.service.fingerprint import request_cache_key, sql_fingerprint
from repro.service.metrics import MetricsRegistry
from repro.service.tenancy import TenantRegistry


def _completed(result: ExplainResult) -> "Future[ExplainResult]":
    future: "Future[ExplainResult]" = Future()
    future.set_result(result)
    return future


#: Root span name for one served request; ``repro-trace`` trees hang off it.
ROOT_SPAN_NAME = "service.explain"


class ExplanationService:
    """Concurrent, cached, batched serving layer over :class:`RagExplainer`."""

    def __init__(
        self,
        system: HTAPSystem,
        router: SmartRouter,
        knowledge_base: KnowledgeBase,
        llm: LLMClient,
        *,
        config: ServiceConfig = ServiceConfig(),
    ):
        self.config = config
        if config.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if config.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.system = system
        self.router = router
        self.knowledge_base = knowledge_base
        self.tenants = TenantRegistry(config.tenants)
        self.llm = llm
        self.explainer = RagExplainer(system, router, knowledge_base, llm, top_k=config.top_k)
        self.default_deadline_seconds = config.default_deadline_seconds
        self.max_in_flight = config.max_in_flight
        self.metrics = MetricsRegistry()
        self.cache = ServiceCache(
            explanation_capacity=config.explanation_cache_capacity,
            plan_capacity=config.plan_cache_capacity,
        )
        self.batcher = MicroBatcher(
            router,
            max_batch_size=config.batch_max_size,
            max_wait_seconds=config.batch_max_wait_seconds,
            metrics=self.metrics,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_workers, thread_name_prefix="explain"
        )
        self._in_flight = 0
        self._admission_lock = threading.Lock()
        self._closed = False
        # Stale-data hooks: any DDL or knowledge write invalidates caches.
        knowledge_base.add_write_listener(self._on_kb_write)
        system.add_ddl_listener(self._on_ddl)
        #: Embedded admin HTTP server and SLO tracker (None unless
        #: ``admin_port`` is configured).
        self.admin = None
        self.slo = None
        if config.admin_port is not None:
            self._start_admin(config)

    # ------------------------------------------------------------- admin plane
    def _start_admin(self, config: ServiceConfig) -> None:
        # Imported lazily: most deployments never start the admin plane,
        # and repro.obs.server pulls in asyncio machinery this hot-path
        # module otherwise does not need.
        from repro.obs.server import AdminServer
        from repro.obs.slo import SLOTracker

        self.slo = SLOTracker()
        self.admin = AdminServer(
            host=config.admin_host,
            port=config.admin_port,
            # The tracer providers re-read get_tracer() per request so the
            # endpoints follow `traced(...)` installs/restores live.
            snapshot_providers=(
                self.metrics_snapshot,
                lambda: get_tracer().stage_snapshot(),
            ),
            health=self.health_report,
            ready=lambda: self.health_report(readiness=True),
            store_provider=lambda: get_tracer().store,
            slo=self.slo,
        )
        self.admin.start()

    def health_report(self, *, readiness: bool = False):
        """Typed liveness (default) or readiness checks for the admin plane.

        Liveness: the service accepts work and its background machinery
        (worker pool, micro-batch scheduler) is running.  Readiness adds
        load-dependent checks — the admission queue has capacity and the
        caches are answering — so an orchestrator can pull a saturated
        instance out of rotation without killing it.
        """
        from repro.obs.health import HealthCheck, HealthReport

        checks = [
            HealthCheck(
                "service_open",
                not self._closed,
                "accepting requests" if not self._closed else "service is shut down",
            ),
            HealthCheck(
                "worker_pool",
                not self._closed,
                f"{self.config.max_workers} workers configured",
            ),
            HealthCheck(
                "batcher",
                self.batcher.alive,
                "scheduler thread running" if self.batcher.alive else "scheduler thread down",
            ),
        ]
        if readiness:
            with self._admission_lock:
                in_flight = self._in_flight
            checks.append(
                HealthCheck(
                    "queue_depth",
                    in_flight < self.max_in_flight,
                    f"{in_flight}/{self.max_in_flight} in flight",
                )
            )
            cache_stats = self.cache.snapshot()
            checks.append(
                HealthCheck(
                    "caches",
                    True,
                    "; ".join(
                        f"{name}: {int(stats.get('size', 0))} entries"
                        for name, stats in sorted(cache_stats.items())
                    ),
                )
            )
        return HealthReport(checks=tuple(checks))

    # ------------------------------------------------------------- invalidation
    def _on_kb_write(self, event: str, entry_id: str, tenant: str) -> None:
        self.metrics.counter("invalidations.kb_write").increment()
        self.cache.on_kb_write(event, entry_id, tenant)

    def _on_ddl(self, event: str, index_name: str) -> None:
        self.metrics.counter("invalidations.ddl").increment()
        self.cache.on_ddl(event, index_name)
        # DDL can change catalog row counts, so the featurizer's per-relation
        # row-count memo is stale along with the plan cache.
        self.router.featurizer.invalidate_catalog_cache()

    # -------------------------------------------------------------------- DDL
    def create_index(self, table_name: str, column_name: str) -> Index:
        """DDL passthrough; the system's listener hook invalidates caches."""
        return self.system.create_index(table_name, column_name)

    def drop_index(self, index_name: str) -> None:
        self.system.drop_index(index_name)

    # ----------------------------------------------------------------- public
    def submit(
        self,
        sql: str,
        *,
        user_notes: str | None = None,
        deadline_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> "Future[ExplainResult]":
        """Admit one request; returns a future that never raises.

        The L1 explanation cache is consulted synchronously, so warm
        requests cost a dict lookup and never occupy a worker or a queue
        slot.  When the in-flight budget is exhausted the request is shed
        with a ``QUEUE_FULL`` rejection; a tenant over its declared quota
        is shed with ``QUOTA_EXCEEDED``.
        """
        request = ExplainRequest(
            sql=sql,
            user_notes=user_notes,
            deadline_seconds=(
                self.default_deadline_seconds if deadline_seconds is None else deadline_seconds
            ),
            tenant=tenant,
        )
        self.metrics.counter("requests.submitted").increment()
        self.metrics.counter(f"requests.tenant.{tenant}").increment()
        tracer = get_tracer()
        root = tracer.span(ROOT_SPAN_NAME, root=True, request_id=request.request_id, tenant=tenant)
        if self._closed:
            self.metrics.counter("requests.rejected_closed").increment()
            self._reject_span(root, ServiceErrorCode.SERVICE_CLOSED)
            return _completed(
                ExplainResult.rejection(
                    request.request_id, ServiceErrorCode.SERVICE_CLOSED, "service is shut down"
                )
            )
        if not self.tenants.try_admit(tenant):
            self._reject_span(root, ServiceErrorCode.QUOTA_EXCEEDED)
            return _completed(
                ExplainResult.rejection(
                    request.request_id,
                    ServiceErrorCode.QUOTA_EXCEEDED,
                    f"tenant {tenant!r} is over its request quota",
                )
            )
        cache_key = request_cache_key(sql, user_notes, self.explainer.top_k, tenant=tenant)
        levels = self.cache.level(tenant)
        with tracer.attach(root):
            with tracer.span("cache.l1_lookup") as lookup:
                cached = levels.explanations.get(cache_key)
                lookup.set_attribute("hit", cached is not None)
        if cached is not None:
            self.metrics.counter("requests.ok").increment()
            total = time.perf_counter() - request.submitted_at
            self.metrics.histogram("latency.warm_seconds").record(total)
            root.set_attributes(status="ok", cache="l1_hit")
            root.end()
            return _completed(
                ExplainResult(
                    request_id=request.request_id,
                    status=RequestStatus.OK,
                    explanation=cached,
                    cache_hit=True,
                    total_seconds=total,
                )
            )
        with self._admission_lock:
            if self._in_flight >= self.max_in_flight:
                self.metrics.counter("requests.shed").increment()
                self._reject_span(root, ServiceErrorCode.QUEUE_FULL)
                return _completed(
                    ExplainResult.rejection(
                        request.request_id,
                        ServiceErrorCode.QUEUE_FULL,
                        f"in-flight limit of {self.max_in_flight} reached",
                    )
                )
            self._in_flight += 1
        try:
            return self._executor.submit(self._process_guarded, request, cache_key, root)
        except RuntimeError:
            # shutdown() raced us between the _closed check and the executor
            # submit; release the admission slot and reject like any other
            # post-close request instead of letting the exception escape.
            with self._admission_lock:
                self._in_flight -= 1
            self.metrics.counter("requests.rejected_closed").increment()
            self._reject_span(root, ServiceErrorCode.SERVICE_CLOSED)
            return _completed(
                ExplainResult.rejection(
                    request.request_id, ServiceErrorCode.SERVICE_CLOSED, "service is shut down"
                )
            )

    def _reject_span(self, root: "Span", code: ServiceErrorCode) -> None:
        """Tag and close a root span for a request the service refused.

        Every refusal — shed on a full queue, an expired deadline, a
        post-shutdown submit — increments a per-reason counter
        (``requests.rejected.<reason>``) and stamps the reason on the
        root span so shed traffic is visible both in the metrics
        exposition and in individual traces.
        """
        self.metrics.counter(f"requests.rejected.{code.value}").increment()
        root.set_attributes(status="rejected", rejected_reason=code.value)
        root.end()

    def explain(
        self,
        sql: str,
        *,
        user_notes: str | None = None,
        deadline_seconds: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> ExplainResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(
            sql, user_notes=user_notes, deadline_seconds=deadline_seconds, tenant=tenant
        ).result()

    # ------------------------------------------------------------------ worker
    def _process_guarded(
        self, request: ExplainRequest, cache_key: str, root: "Span" = NULL_SPAN
    ) -> ExplainResult:
        # Re-enter the root span on this worker thread: it was opened on the
        # submitting thread, and contextvars do not follow work into a pool,
        # so without the attach every stage span below would be orphaned.
        try:
            with get_tracer().attach(root):
                result = self._process(request, cache_key, root)
        except Exception as exc:  # noqa: BLE001 - typed result, never raise
            self.metrics.counter("requests.failed").increment()
            root.set_attributes(status="failed", error=type(exc).__name__)
            result = ExplainResult.failure(
                request.request_id,
                ServiceErrorCode.INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}",
                total_seconds=time.perf_counter() - request.submitted_at,
            )
        finally:
            with self._admission_lock:
                self._in_flight -= 1
            root.end()
        return result

    def _process(
        self, request: ExplainRequest, cache_key: str, root: "Span" = NULL_SPAN
    ) -> ExplainResult:
        started = time.perf_counter()
        queue_seconds = started - request.submitted_at
        self.metrics.histogram("latency.queue_seconds").record(queue_seconds)
        root.set_attribute("queue_seconds", round(queue_seconds, 6))
        if request.expired(started):
            return self._deadline_exceeded(
                request, root, f"after {queue_seconds:.3f}s in queue", queue_seconds, started
            )
        # A twin request may have populated the explanation cache while this
        # one waited for a worker.
        tenant = request.tenant
        levels = self.cache.level(tenant)
        tracer = get_tracer()
        with tracer.span("cache.l1_lookup") as lookup:
            cached = levels.explanations.get(cache_key)
            lookup.set_attribute("hit", cached is not None)
        if cached is not None:
            self.metrics.counter("requests.ok").increment()
            total = time.perf_counter() - request.submitted_at
            self.metrics.histogram("latency.warm_seconds").record(total)
            root.set_attributes(status="ok", cache="l1_hit")
            return ExplainResult(
                request_id=request.request_id,
                status=RequestStatus.OK,
                explanation=cached,
                cache_hit=True,
                queue_seconds=queue_seconds,
                total_seconds=total,
            )

        plan_key = sql_fingerprint(request.sql, tenant=tenant)
        # Epochs read *before* computing guard the puts below: if DDL or a KB
        # write invalidates a cache while this request is mid-flight, the
        # stale result must not be re-inserted after the clear.
        plan_epoch = levels.plans.epoch
        explanation_epoch = levels.explanations.epoch
        with tracer.span("cache.l2_lookup") as lookup:
            plan_entry = self.cache.get_plan(plan_key, tenant=tenant)
            lookup.set_attribute("hit", plan_entry is not None)
        encode_seconds = 0.0
        if plan_entry is None:
            execution: QueryExecution = self.system.run_both(request.sql)
            encode_start = time.perf_counter()
            with tracer.span("pipeline.encode", batched=True):
                embedding = self.batcher.encode(
                    execution.plan_pair,
                    tenant=tenant,
                    weight=self.tenants.weight(tenant),
                )
            encode_seconds = time.perf_counter() - encode_start
            self.cache.put_plan(plan_key, execution, embedding, epoch=plan_epoch, tenant=tenant)
            plan_cache_hit = False
        else:
            execution, embedding = plan_entry
            plan_cache_hit = True
        root.set_attribute("cache.l2_hit", plan_cache_hit)

        now = time.perf_counter()
        if request.expired(now):
            return self._deadline_exceeded(request, root, "before generation", queue_seconds, now)

        retrieval = self.explainer.retrieve_stage(embedding, tenant=tenant)
        explanation: Explanation = self.explainer.generate_stage(
            execution.plan_pair,
            embedding,
            retrieval,
            encode_seconds=encode_seconds,
            execution_result=execution_result_text(execution),
            faster_engine=execution.faster_engine,
            user_notes=request.user_notes,
        )
        levels.explanations.put(cache_key, explanation, epoch=explanation_epoch)
        self.metrics.counter("requests.ok").increment()
        total = time.perf_counter() - request.submitted_at
        self.metrics.histogram("latency.cold_seconds").record(total)
        root.set_attributes(status="ok")
        return ExplainResult(
            request_id=request.request_id,
            status=RequestStatus.OK,
            explanation=explanation,
            plan_cache_hit=plan_cache_hit,
            queue_seconds=queue_seconds,
            total_seconds=total,
        )

    def _deadline_exceeded(
        self, request: ExplainRequest, root: "Span", when: str, queue_seconds: float, now: float
    ) -> ExplainResult:
        """Typed ``DEADLINE_EXCEEDED`` failure for a request whose budget ran
        out ``when`` (in the queue, or before generation)."""
        code = ServiceErrorCode.DEADLINE_EXCEEDED
        self.metrics.counter("requests.deadline_exceeded").increment()
        self.metrics.counter(f"requests.rejected.{code.value}").increment()
        root.set_attributes(status="rejected", rejected_reason=code.value)
        return ExplainResult.failure(
            request.request_id,
            code,
            f"deadline of {request.deadline_seconds:.3f}s expired {when}",
            queue_seconds=queue_seconds,
            total_seconds=now - request.submitted_at,
        )

    # --------------------------------------------------------------- telemetry
    def metrics_snapshot(self) -> dict[str, object]:
        """One dict with counters, latency summaries, cache and batch stats."""
        payload = self.metrics.snapshot()
        payload["cache"] = self.cache.snapshot()
        payload["batching"] = self.batcher.stats()
        with self._admission_lock:
            payload["in_flight"] = self._in_flight
        payload["max_in_flight"] = self.max_in_flight
        return payload

    # ---------------------------------------------------------------- lifecycle
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and tear down the pool and the batcher."""
        self._closed = True
        if self.admin is not None:
            self.admin.stop()
        self._executor.shutdown(wait=wait)
        self.batcher.close()
        # Unhook the invalidation listeners so a discarded service does not
        # keep receiving callbacks from long-lived system objects.
        try:
            self.knowledge_base.remove_write_listener(self._on_kb_write)
        except ValueError:
            pass
        try:
            self.system.remove_ddl_listener(self._on_ddl)
        except ValueError:
            pass

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

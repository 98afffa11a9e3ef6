"""End-to-end tests for ExplanationService: concurrency, caching, shedding,
deadlines, invalidation, and telemetry (the PR's acceptance criteria)."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor


from repro.service import ExplanationService, RequestStatus, ServiceConfig, ServiceErrorCode


# ------------------------------------------------------------- happy paths
def test_cold_request_produces_explanation(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    result = service.explain(sqls[0])
    assert result.ok
    assert result.status is RequestStatus.OK
    assert not result.cache_hit
    assert result.explanation is not None and result.explanation.text
    assert result.explanation.retrieved  # grounded in the knowledge base
    assert result.request_id.startswith("req-")


def test_warm_request_is_cache_hit_and_10x_faster(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    start = time.perf_counter()
    cold = service.explain(sqls[0])
    cold_seconds = time.perf_counter() - start
    assert cold.ok and not cold.cache_hit

    warm_seconds = []
    for _ in range(5):
        start = time.perf_counter()
        warm = service.explain(sqls[0])
        warm_seconds.append(time.perf_counter() - start)
        assert warm.ok and warm.cache_hit
        assert warm.explanation.text == cold.explanation.text
    # Acceptance criterion: warm-cache requests >= 10x faster end-to-end.
    assert cold_seconds / min(warm_seconds) >= 10.0


def test_normalized_sql_variants_share_one_cache_line(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    sql = sqls[0]
    service.explain(sql)
    variant = "  " + sql.rstrip(";").upper().replace(" ", "  ") + " ;"
    # Upper-casing keywords/identifiers and reflowing whitespace must hit;
    # string literals are preserved by the simulator's semantics, so keep them.
    if "'" not in sql:
        result = service.explain(variant)
        assert result.cache_hit


def test_32_concurrent_requests_zero_errors(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    workload = [sqls[i % len(sqls)] for i in range(64)]  # repeating workload
    with ThreadPoolExecutor(max_workers=32) as pool:
        results = list(pool.map(service.explain, workload))
        # Second wave over the same workload: now fully warm.
        second_wave = list(pool.map(service.explain, workload))
    assert len(results) == 64
    assert all(result.ok for result in results), [
        result.error for result in results if not result.ok
    ]
    assert all(result.ok and result.cache_hit for result in second_wave)
    # Some of the first wave's repeats are served from cache too (twins that
    # raced the same cold SQL may each compute, so only a weak bound holds).
    assert any(result.cache_hit for result in results)
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.ok"] == 128
    assert snapshot["requests.submitted"] == 128


def test_plan_cache_skips_replanning_after_kb_write(service, service_stack):
    _system, _router, kb, _llm, sqls, labeled = service_stack
    first = service.explain(sqls[1])
    assert first.ok and not first.plan_cache_hit
    # A KB write evicts explanations but not plans …
    kb.correct(labeled[0].query_id, "corrected text")
    second = service.explain(sqls[1])
    assert second.ok and not second.cache_hit
    assert second.plan_cache_hit  # … so the replay skips parse/optimize/encode.


# ---------------------------------------------------------------- shedding
def test_queue_full_returns_typed_rejection(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    with ExplanationService(
        system, router, kb, llm,
        config=ServiceConfig(max_workers=1, max_in_flight=1),
    ) as service:
        futures = [service.submit(sqls[i % len(sqls)]) for i in range(12)]
        results = [future.result() for future in futures]
    shed = [result for result in results if not result.ok]
    served = [result for result in results if result.ok]
    assert served, "at least the first admitted request must be served"
    assert shed, "with a 1-deep budget, most of a 12-burst must be shed"
    for result in shed:
        assert result.status is RequestStatus.REJECTED
        assert result.error is not None
        assert result.error.code is ServiceErrorCode.QUEUE_FULL
        assert result.error.retryable


def test_shutdown_rejects_new_requests(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    service = ExplanationService(system, router, kb, llm)
    service.shutdown()
    result = service.explain(sqls[0])
    assert result.status is RequestStatus.REJECTED
    assert result.error.code is ServiceErrorCode.SERVICE_CLOSED
    assert not result.error.retryable


# ---------------------------------------------------------------- deadlines
def test_expired_deadline_is_typed_failure(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    with ExplanationService(
        system, router, kb, llm,
        config=ServiceConfig(max_workers=2),
    ) as service:
        result = service.explain(sqls[0], deadline_seconds=1e-9)
        assert result.status is RequestStatus.FAILED
        assert result.error.code is ServiceErrorCode.DEADLINE_EXCEEDED
        assert result.error.retryable


def test_deadline_expiring_before_generation_is_typed_failure(service_stack):
    system, router, kb, llm, sqls, _labeled = service_stack
    run_both = system.run_both
    generated: list[object] = []
    llm_generate = llm.generate

    def stalled_run_both(sql):
        time.sleep(0.3)
        return run_both(sql)

    def counted_generate(request):
        generated.append(request)
        return llm_generate(request)

    system.run_both = stalled_run_both
    llm.generate = counted_generate
    with ExplanationService(
        system, router, kb, llm,
        config=ServiceConfig(max_workers=2),
    ) as service:
        result = service.explain(sqls[0], deadline_seconds=0.2)
        assert result.status is RequestStatus.FAILED
        assert result.error.code is ServiceErrorCode.DEADLINE_EXCEEDED
        assert "expired before generation" in result.error.message
        assert result.total_seconds >= 0.3 > result.queue_seconds
        assert not generated  # the expired request never reached the LLM
        snapshot = service.metrics_snapshot()
        assert snapshot["requests.deadline_exceeded"] == 1
        assert snapshot["requests.rejected.deadline_exceeded"] == 1
        assert snapshot["in_flight"] == 0
        assert len(service.cache.level().explanations) == 0  # a failure is never cached


def test_generous_deadline_succeeds(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    result = service.explain(sqls[2], deadline_seconds=30.0)
    assert result.ok


# ------------------------------------------------------------- invalidation
def test_ddl_evicts_explanations_and_plans(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    service.explain(sqls[0])
    assert service.explain(sqls[0]).cache_hit
    service.create_index("customer", "c_phone")
    after_ddl = service.explain(sqls[0])
    assert after_ddl.ok
    assert not after_ddl.cache_hit
    assert not after_ddl.plan_cache_hit  # plans re-derived under the new index
    snapshot = service.metrics_snapshot()
    assert snapshot["invalidations.ddl"] == 1


def test_kb_write_evicts_explanations(service, service_stack):
    _system, _router, kb, _llm, sqls, labeled = service_stack
    service.explain(sqls[0])
    kb.correct(labeled[0].query_id, "better wording", None)
    refreshed = service.explain(sqls[0])
    assert refreshed.ok and not refreshed.cache_hit
    assert service.metrics_snapshot()["invalidations.kb_write"] == 1


def test_drop_index_also_invalidates(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    index = service.create_index("customer", "c_phone")
    service.explain(sqls[0])
    service.drop_index(index.name)
    assert not service.explain(sqls[0]).cache_hit


# ---------------------------------------------------------------- telemetry
def test_metrics_snapshot_shape(service, service_stack):
    _system, _router, _kb, _llm, sqls, _labeled = service_stack
    service.explain(sqls[0])
    service.explain(sqls[0])
    snapshot = service.metrics_snapshot()
    assert snapshot["requests.submitted"] == 2
    assert snapshot["requests.ok"] == 2
    cold = snapshot["latency.cold_seconds"]
    assert cold["count"] == 1
    assert {"p50", "p95", "p99", "mean", "max"} <= set(cold)
    assert snapshot["cache"]["explanations"]["hit_rate"] > 0.0
    assert snapshot["batching"]["requests"] == 1
    assert snapshot["in_flight"] == 0


def test_error_results_never_raise(service):
    # Unparseable SQL must come back as a typed INTERNAL_ERROR failure.
    result = service.explain("THIS IS NOT SQL")
    assert result.status is RequestStatus.FAILED
    assert result.error.code is ServiceErrorCode.INTERNAL_ERROR
    assert not result.ok
    assert result.text is None

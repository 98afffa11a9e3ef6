"""Tenancy policy: quotas, weighted fair queueing, and cache isolation."""

from __future__ import annotations

import queue

import pytest

from repro.explainer.pipeline import RagExplainer, entries_from_labeled, execution_result_text
from repro.service import ExplanationService, ServiceConfig
from repro.service.batching import WeightedFairQueue
from repro.service.cache import ServiceCache
from repro.service.fingerprint import request_cache_key, sql_fingerprint
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
)
from repro.workloads.experts import SimulatedExpert


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------- token bucket
def test_token_bucket_burst_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, capacity=3.0, clock=clock)
    assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
    clock.advance(0.5)  # refills one token at 2/s
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    clock.advance(100.0)  # refill clamps at capacity
    assert bucket.available == pytest.approx(3.0)


def test_token_bucket_default_capacity_and_validation():
    bucket = TokenBucket(rate=5.0)
    assert bucket.capacity == pytest.approx(10.0)
    assert TokenBucket(rate=0.1).capacity == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)


def test_tenant_config_validation():
    with pytest.raises(ValueError):
        TenantConfig(name="")
    with pytest.raises(ValueError):
        TenantConfig(name="a", weight=0.0)
    with pytest.raises(ValueError):
        TenantConfig(name="a", requests_per_second=-1.0)
    with pytest.raises(ValueError):
        TenantConfig(name="a", burst=0.0)


def test_registry_weights_quotas_and_open_default():
    clock = FakeClock()
    registry = TenantRegistry(
        (
            TenantConfig(name="gold", weight=4.0),
            TenantConfig(name="tiny", requests_per_second=1.0, burst=2.0),
        ),
        clock=clock,
    )
    assert registry.names() == ("gold", "tiny")
    assert registry.known("gold") and not registry.known("stranger")
    assert registry.weight("gold") == 4.0
    # Unknown tenants are open by default: weight 1.0, no quota.
    assert registry.weight("stranger") == 1.0
    assert all(registry.try_admit("stranger") for _ in range(50))
    assert all(registry.try_admit("gold") for _ in range(50))
    # Quota'd tenant: burst of 2, then rejected until the bucket refills.
    assert [registry.try_admit("tiny") for _ in range(3)] == [True, True, False]
    clock.advance(1.0)
    assert registry.try_admit("tiny")
    with pytest.raises(ValueError):
        TenantRegistry((TenantConfig(name="a"), TenantConfig(name="a")))


# ------------------------------------------------------- weighted fair queue
def test_wfq_fifo_within_tenant_and_empty():
    wfq: WeightedFairQueue[str] = WeightedFairQueue()
    with pytest.raises(queue.Empty):
        wfq.get_nowait()
    with pytest.raises(queue.Empty):
        wfq.get(timeout=0.01)
    for item in ("a1", "a2", "a3"):
        wfq.put(item, tenant="a")
    assert [wfq.get_nowait() for _ in range(3)] == ["a1", "a2", "a3"]
    assert wfq.qsize() == 0


def test_wfq_interleaves_tenants_by_weight():
    wfq: WeightedFairQueue[str] = WeightedFairQueue()
    # Tenant "heavy" (weight 2) should drain twice as fast as "light"
    # (weight 1) when both have a backlog.
    for i in range(4):
        wfq.put(f"light-{i}", tenant="light", weight=1.0)
    for i in range(8):
        wfq.put(f"heavy-{i}", tenant="heavy", weight=2.0)
    order = [wfq.get_nowait() for _ in range(12)]
    # In any drain prefix, heavy items appear ~2x as often as light ones.
    first_six = order[:6]
    heavy_count = sum(1 for item in first_six if item.startswith("heavy"))
    assert heavy_count == 4, order
    # FIFO holds within each tenant regardless of interleaving.
    assert [i for i in order if i.startswith("light")] == [f"light-{i}" for i in range(4)]
    assert [i for i in order if i.startswith("heavy")] == [f"heavy-{i}" for i in range(8)]


def test_wfq_rejects_non_positive_weight():
    wfq: WeightedFairQueue[str] = WeightedFairQueue()
    with pytest.raises(ValueError):
        wfq.put("x", weight=0.0)


# ----------------------------------------------------- fingerprints + caches
def test_fingerprint_tenant_folding():
    sql = "SELECT a FROM t WHERE b = 1"
    # Default/None tenants produce the legacy, byte-identical key.
    assert sql_fingerprint(sql) == sql_fingerprint(sql, tenant=None)
    assert sql_fingerprint(sql) == sql_fingerprint(sql, tenant=DEFAULT_TENANT)
    assert request_cache_key(sql) == request_cache_key(sql, tenant=DEFAULT_TENANT)
    # Distinct tenants get distinct keys for identical SQL.
    acme = sql_fingerprint(sql, tenant="acme")
    zeta = sql_fingerprint(sql, tenant="zeta")
    assert len({sql_fingerprint(sql), acme, zeta}) == 3
    assert request_cache_key(sql, tenant="acme") != request_cache_key(sql, tenant="zeta")


def test_cache_levels_are_isolated_per_tenant():
    cache = ServiceCache()
    cache.level("a").explanations.put("key", "answer-a")
    cache.level("b").explanations.put("key", "answer-b")
    cache.level(DEFAULT_TENANT).explanations.put("key", "answer-default")
    # Tenant A's KB write clears only tenant A's explanations.
    cache.on_kb_write("add", "entry-1", tenant="a")
    assert cache.level("a").explanations.get("key") is None
    assert cache.level("b").explanations.get("key") == "answer-b"
    assert cache.level(DEFAULT_TENANT).explanations.get("key") == "answer-default"
    # A shared-corpus (default-tenant) KB write clears every tenant's explanations.
    cache.on_kb_write("add", "entry-2")
    assert cache.level("b").explanations.get("key") is None
    assert cache.level(DEFAULT_TENANT).explanations.get("key") is None


def test_plan_cache_is_tenant_scoped_and_ddl_clears_all():
    cache = ServiceCache()
    cache.put_plan("fp", "exec-a", [1.0, 2.0], tenant="a")
    assert cache.get_plan("fp", tenant="a") == ("exec-a", [1.0, 2.0])
    assert cache.get_plan("fp", tenant="b") is None
    assert cache.get_plan("fp") is None
    # KB writes never touch plans.
    cache.on_kb_write("add", "entry-1", tenant="a")
    assert cache.get_plan("fp", tenant="a") == ("exec-a", [1.0, 2.0])
    # DDL clears every tenant's both levels.
    cache.on_ddl("create_index", "idx")
    assert cache.get_plan("fp", tenant="a") is None


def test_cache_snapshot_uses_tenant_suffixed_keys():
    cache = ServiceCache()
    cache.level("acme")
    snapshot = cache.snapshot()
    assert "explanations" in snapshot and "plans" in snapshot
    assert "explanations.acme" in snapshot and "plans.acme" in snapshot
    assert cache.tenants() == tuple(sorted((DEFAULT_TENANT, "acme")))


# ----------------------------------------------------------- service wiring
def test_service_quota_rejection_and_tenant_isolation(service_stack):
    system, router, knowledge_base, llm, sqls, _labeled = service_stack
    svc = ExplanationService(
        system, router, knowledge_base, llm,
        config=ServiceConfig(
            max_workers=2,
            max_in_flight=32,
            tenants=(TenantConfig(name="tiny", requests_per_second=0.001, burst=2.0),),
        ),
    )
    try:
        # Burst of 2, then typed QUOTA_EXCEEDED rejections (retryable).
        outcomes = [svc.explain(sqls[0], tenant="tiny") for _ in range(4)]
        assert [r.status.value for r in outcomes] == ["ok", "ok", "rejected", "rejected"]
        assert outcomes[2].error is not None
        assert outcomes[2].error.code.value == "quota_exceeded"
        assert outcomes[2].error.retryable

        # Other tenants are unaffected by tiny's exhausted bucket, and each
        # tenant warms its own L1 — no cross-tenant cache hits.
        first = svc.explain(sqls[1], tenant="acme")
        assert first.ok and not first.cache_hit
        warm = svc.explain(sqls[1], tenant="acme")
        assert warm.ok and warm.cache_hit
        other = svc.explain(sqls[1], tenant="beta")
        assert other.ok and not other.cache_hit

        snapshot = svc.metrics_snapshot()
        assert snapshot["requests.tenant.acme"] == 2
        assert snapshot["requests.tenant.tiny"] == 4
        assert "explanations.acme" in snapshot["cache"]

        # Tenants ground on the shared (default-namespace) corpus.
        assert first.explanation is not None and len(first.explanation.retrieved) > 0

        # A shared-corpus write stales every tenant's L1: acme's warm
        # entry must drop and the next request recompute.
        shared_id = svc.knowledge_base.entries(tenant=DEFAULT_TENANT)[0].entry_id
        svc.knowledge_base.correct(shared_id, "updated shared grounding")
        recomputed = svc.explain(sqls[1], tenant="acme")
        assert recomputed.ok and not recomputed.cache_hit
    finally:
        svc.shutdown()


def test_tenant_request_matches_inline_explainer(service_stack):
    """A served tenant answer equals RagExplainer's over the same KB and
    tenant: retrieved ids in order, prompt, text and claims."""
    system, router, kb, llm, sqls, labeled = service_stack
    private = entries_from_labeled(labeled[12:15], router, SimulatedExpert())
    shadowed_id = labeled[0].query_id
    private[2].entry_id = shadowed_id  # shadows a shared entry
    kb.add_many(private, tenant="acme")
    private_ids = {entry.entry_id for entry in private[:2]}
    explainer = RagExplainer(system, router, kb, llm, top_k=2)
    with ExplanationService(system, router, kb, llm, config=ServiceConfig(max_workers=2)) as svc:
        for tenant in (DEFAULT_TENANT, "acme", "zeta"):
            for sql in sqls[:5]:
                served = svc.explain(sql, tenant=tenant)
                assert served.ok and not served.cache_hit
                got = served.explanation
                execution = system.run_both(sql)
                retrieval = explainer.retrieve_stage(got.embedding, tenant=tenant)
                expected = explainer.generate_stage(
                    execution.plan_pair,
                    got.embedding,
                    retrieval,
                    execution_result=execution_result_text(execution),
                    faster_engine=execution.faster_engine,
                )
                ids = [hit.entry.entry_id for hit in got.retrieved]
                assert ids == [hit.entry.entry_id for hit in expected.retrieved]
                assert got.prompt.text == expected.prompt.text
                assert got.text == expected.text
                assert got.claims == expected.claims
                if tenant != "acme":
                    assert not private_ids & set(ids)
                    assert all(hit.entry.sql != labeled[14].sql for hit in got.retrieved)
        # acme retrieves its private entry built from sqls[0]; its shadowing
        # entry replaces the shared one of the same id (the shared entry is
        # among sqls[0]'s nearest, the shadowing entry is not) and grounds
        # sqls[2], which it was built from.
        near = svc.explain(sqls[0], tenant="acme").explanation.retrieved
        assert labeled[12].query_id in {hit.entry.entry_id for hit in near}
        assert shadowed_id not in {hit.entry.entry_id for hit in near}
        shadow = svc.explain(sqls[2], tenant="acme").explanation.retrieved[0].entry
        assert (shadow.entry_id, shadow.sql) == (shadowed_id, labeled[14].sql)

"""ServiceConfig, the L2 plan entries, and the cache-temperature oracle."""

import numpy as np
import pytest

from repro.explainer.pipeline import entries_from_labeled
from repro.service import ExplanationService, ServiceCache, ServiceConfig
from repro.service.tenancy import DEFAULT_TENANT
from repro.workloads.experts import SimulatedExpert


# ------------------------------------------------------------ ServiceConfig
def test_config_defaults():
    config = ServiceConfig()
    assert config.top_k == 2
    assert config.max_workers == 4
    assert config.max_in_flight == 64
    assert config.batch_max_size == 16
    assert config.admin_port is None


def test_service_takes_top_k_from_config(service_stack):
    system, router, knowledge_base, llm, _sqls, _labeled = service_stack
    config = ServiceConfig(max_workers=2, top_k=3)
    service = ExplanationService(system, router, knowledge_base, llm, config=config)
    try:
        assert service.config is config
        assert service.explainer.top_k == 3
    finally:
        service.shutdown()


def test_invalid_config_values_still_rejected(service_stack):
    system, router, knowledge_base, llm, _sqls, _labeled = service_stack
    for config in (ServiceConfig(max_workers=0), ServiceConfig(max_in_flight=0)):
        with pytest.raises(ValueError):
            ExplanationService(system, router, knowledge_base, llm, config=config)


# ---------------------------------------------------------------- L2 entries
def test_service_cache_plain_embeddings_pass_through():
    cache = ServiceCache()
    embedding = np.arange(8, dtype=np.float64)
    cache.put_plan("fp1", "execution-sentinel", embedding)
    _execution, stored = cache.get_plan("fp1")
    np.testing.assert_array_equal(stored, embedding)
    assert cache.get_plan("missing") is None


def test_get_plan_respects_epoch_guard():
    cache = ServiceCache()
    plans = cache.level().plans
    epoch = plans.epoch
    plans.clear()
    assert not cache.put_plan("fp1", "x", np.ones(4), epoch=epoch)
    assert cache.get_plan("fp1") is None


# ------------------------------------------------- cache-temperature oracle
@pytest.mark.parametrize("temperature", ["l1", "l2"])
@pytest.mark.parametrize("tenant", [DEFAULT_TENANT, "acme"])
def test_warm_answer_equals_cold_answer(service_stack, tenant, temperature):
    """An answer served warm equals the one a fresh service computes cold for
    the same SQL and notes: retrieved ids in order, prompt, text and claims.
    ``l1`` serves the same SQL and notes twice, so the second answer is an
    explanation-cache hit; ``l2`` changes the notes, so only the plan and
    embedding are reused.  Cache temperature must not change what the LLM is
    asked or what it answers."""
    system, router, kb, llm, sqls, labeled = service_stack
    private_ids: set[str] = set()
    if tenant != DEFAULT_TENANT:
        private = entries_from_labeled(labeled[12:15], router, SimulatedExpert())
        private[2].entry_id = labeled[0].query_id  # shadows a shared entry
        kb.add_many(private, tenant=tenant)
        private_ids = {entry.entry_id for entry in private}
    config = ServiceConfig(max_workers=2)
    first_notes = "second" if temperature == "l1" else "first"
    warm_answers = []
    with ExplanationService(system, router, kb, llm, config=config) as warm:
        for sql in sqls:
            assert warm.explain(sql, user_notes=first_notes, tenant=tenant).ok
            served = warm.explain(sql, user_notes="second", tenant=tenant)
            if temperature == "l1":
                assert served.ok and served.cache_hit
            else:
                assert served.ok and served.plan_cache_hit and not served.cache_hit
            warm_answers.append(served.explanation)
    with ExplanationService(system, router, kb, llm, config=config) as fresh:
        for sql, got in zip(sqls, warm_answers):
            served = fresh.explain(sql, user_notes="second", tenant=tenant)
            assert served.ok and not served.plan_cache_hit
            expected = served.explanation
            assert [hit.entry.entry_id for hit in got.retrieved] == [
                hit.entry.entry_id for hit in expected.retrieved
            ]
            assert got.prompt.text == expected.prompt.text
            assert got.text == expected.text
            assert got.claims == expected.claims
    cited = {hit.entry.entry_id for got in warm_answers for hit in got.retrieved}
    assert bool(cited & private_ids) == (tenant != DEFAULT_TENANT)

"""Tests for SQL fingerprinting and the LRU cache levels."""

from __future__ import annotations

from repro.service.cache import LRUCache, ServiceCache
from repro.service.fingerprint import normalize_sql, request_cache_key, sql_fingerprint


# ------------------------------------------------------------- fingerprints
def test_normalize_collapses_whitespace_and_case():
    a = "SELECT  *\nFROM   customer ;"
    b = "select * from customer"
    assert normalize_sql(a) == normalize_sql(b) == "select * from customer"
    assert sql_fingerprint(a) == sql_fingerprint(b)


def test_normalize_preserves_string_literals():
    upper = "SELECT * FROM customer WHERE c_mktsegment = 'MACHINERY'"
    lower = "SELECT * FROM customer WHERE c_mktsegment = 'machinery'"
    assert "'MACHINERY'" in normalize_sql(upper)
    assert sql_fingerprint(upper) != sql_fingerprint(lower)


def test_request_cache_key_varies_with_notes_and_k():
    sql = "SELECT * FROM orders"
    base = request_cache_key(sql)
    assert request_cache_key(sql) == base
    assert request_cache_key(sql, user_notes="index on c_phone") != base
    assert request_cache_key(sql, top_k=3) != request_cache_key(sql, top_k=2)


# -------------------------------------------------------------------- LRU
def test_lru_eviction_order():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)           # evicts b (least recently used)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_hit_miss_accounting_and_invalidate():
    cache = LRUCache(capacity=4)
    cache.put("k", 42)
    assert cache.get("k") == 42
    assert cache.get("unknown") is None
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    assert cache.invalidate("k") is True
    assert cache.invalidate("k") is False
    assert cache.stats.invalidations == 1
    assert len(cache) == 0


# ----------------------------------------------------------- service cache
def test_kb_write_evicts_only_explanations():
    cache = ServiceCache()
    levels = cache.level()
    levels.explanations.put("e1", "explanation")
    levels.plans.put("p1", "plan")
    cache.on_kb_write("add", "entry-1")
    assert levels.explanations.get("e1") is None
    assert levels.plans.get("p1") == "plan"


def test_ddl_evicts_both_levels():
    cache = ServiceCache()
    levels = cache.level()
    levels.explanations.put("e1", "explanation")
    levels.plans.put("p1", "plan")
    cache.on_ddl("create_index", "idx_customer_c_phone")
    assert levels.explanations.get("e1") is None
    assert levels.plans.get("p1") is None


def test_epoch_guard_refuses_stale_put_after_clear():
    """A put computed before an invalidation must not repopulate the cache."""
    cache = LRUCache(capacity=8)
    epoch = cache.epoch
    cache.clear()  # invalidation races the in-flight computation
    assert cache.put("k", "stale", epoch=epoch) is False
    assert cache.get("k") is None
    assert cache.put("k", "fresh", epoch=cache.epoch) is True
    assert cache.get("k") == "fresh"


def test_snapshot_shape():
    cache = ServiceCache()
    cache.level().plans.put("p", 1)
    cache.level().plans.get("p")
    snap = cache.snapshot()
    assert set(snap) == {"explanations", "plans"}
    assert snap["plans"]["hits"] == 1
    assert snap["plans"]["size"] == 1

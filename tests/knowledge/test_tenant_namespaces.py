"""Tenant namespaces inside one KnowledgeBase: isolation, shared-corpus
grounding, shadowing, write listeners, and retrieval against a brute-force
reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.strategies import brute_force_topk
from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import DEFAULT_TENANT, KnowledgeBase
from repro.knowledge.vector_store import FlatVectorStore, HNSWVectorStore

DIM = 8


def make_entry(entry_id: str, embedding: np.ndarray) -> KnowledgeEntry:
    return KnowledgeEntry(
        entry_id=entry_id,
        embedding=np.asarray(embedding, dtype=np.float64),
        sql=f"SELECT * FROM t -- {entry_id}",
        plan_details="plan",
        faster_engine="tp",
        tp_latency_seconds=0.1,
        ap_latency_seconds=0.2,
        expert_explanation="because",
        factors=("selectivity",),
    )


def make_entries(n: int, seed: int = 0, prefix: str = "entry") -> list[KnowledgeEntry]:
    rng = np.random.default_rng(seed)
    return [make_entry(f"{prefix}-{i}", rng.normal(size=DIM)) for i in range(n)]


def ids(result) -> list[str]:
    return [hit.entry.entry_id for hit in result.hits]


def ids_in(kb: KnowledgeBase, tenant: str) -> set[str]:
    return {entry.entry_id for entry in kb.entries(tenant=tenant)}


# ---------------------------------------------------------------- default view
def test_default_retrieval_is_one_store_search():
    """The default tenant's hits are exactly the shared store's search:
    same ids, same order, bit-identical distances."""
    kb = KnowledgeBase()
    kb.add_many(make_entries(150))
    kb.add_many(make_entries(20, seed=5), tenant="acme")
    rng = np.random.default_rng(42)
    for _ in range(20):
        query = rng.normal(size=DIM)
        expected = [(r.key, r.distance) for r in kb.vector_store.search(query, 5)]
        got = [(hit.entry.entry_id, hit.distance) for hit in kb.retrieve(query, k=5).hits]
        assert got == expected


def test_crud_round_trip_and_errors():
    kb = KnowledgeBase()
    entries = make_entries(10)
    kb.add_many(entries[:9])
    kb.add(entries[9])
    assert len(kb) == 10
    assert "entry-3" in kb
    assert kb.get("entry-3").entry_id == "entry-3"
    kb.correct("entry-3", "corrected text", ("new-factor",))
    assert kb.get("entry-3").expert_explanation == "corrected text"
    assert kb.remove("entry-3").entry_id == "entry-3"
    assert "entry-3" not in kb
    with pytest.raises(KeyError):
        kb.get("entry-3")
    with pytest.raises(KeyError):
        kb.remove("entry-3")
    with pytest.raises(KeyError):
        kb.correct("nope", "x")
    # The same operations inside a tenant namespace.
    kb.add(make_entry("entry-3", np.ones(DIM)), tenant="acme")
    assert "entry-3" in ids_in(kb, "acme") and "entry-3" not in kb
    with pytest.raises(KeyError):
        kb.add(make_entry("entry-3", np.ones(DIM)), tenant="acme")
    with pytest.raises(KeyError):
        kb.get("entry-4", tenant="acme")
    with pytest.raises(KeyError):
        kb.remove("entry-3", tenant="zeta")


# ------------------------------------------------------------ tenant isolation
def test_tenant_namespaces_are_isolated():
    kb = KnowledgeBase()
    kb.add_many(make_entries(30), tenant="tenant-a")
    kb.add_many(make_entries(5, seed=9), tenant="tenant-b")
    assert len(kb.entries(tenant="tenant-a")) == 30
    assert len(kb.entries(tenant="tenant-b")) == 5
    assert len(kb) == 0
    # The same entry id exists under both tenants independently.
    assert "entry-0" in ids_in(kb, "tenant-a")
    assert "entry-0" in ids_in(kb, "tenant-b")
    assert "entry-0" not in kb
    # Retrieval never crosses tenants.
    query = np.random.default_rng(1).normal(size=DIM)
    hits = kb.retrieve(query, k=50, tenant="tenant-b").hits
    assert {hit.entry.entry_id for hit in hits} == {f"entry-{i}" for i in range(5)}
    b_entries = {entry.entry_id: entry for entry in kb.entries(tenant="tenant-b")}
    assert all(hit.entry is b_entries[hit.entry.entry_id] for hit in hits)
    assert kb.retrieve(query, k=5).hits == []


def test_tenant_namespace_lives_only_while_it_holds_entries():
    """Failed or empty writes create no namespace, and removing a tenant's
    last entry drops it, so an empty tenant falls back to the shared search."""
    kb = KnowledgeBase()
    kb.add_many(make_entries(3))
    kb.add_many([], tenant="acme")
    with pytest.raises(KeyError):
        kb.remove("entry-0", tenant="acme")
    assert set(kb._namespaces) == {DEFAULT_TENANT}
    kb.add(make_entry("mine", np.ones(DIM)), tenant="acme")
    with pytest.raises(KeyError):
        kb.add(make_entry("mine", np.ones(DIM)), tenant="acme")
    assert set(kb._namespaces) == {DEFAULT_TENANT, "acme"}
    kb.remove("mine", tenant="acme")
    assert set(kb._namespaces) == {DEFAULT_TENANT}
    # The default namespace itself survives being emptied.
    for entry_id in ("entry-0", "entry-1", "entry-2"):
        kb.remove(entry_id)
    assert set(kb._namespaces) == {DEFAULT_TENANT} and len(kb) == 0
    kb.add(make_entry("again", np.ones(DIM)))
    assert ids(kb.retrieve(np.ones(DIM), k=1)) == ["again"]


def test_tenant_retrieval_grounds_on_shared_corpus():
    """A tenant searches its own entries plus the default namespace, and a
    tenant entry shadows a shared entry with the same id."""
    kb = KnowledgeBase()
    kb.add_many(make_entries(20))
    query = np.random.default_rng(7).normal(size=DIM)
    # A tenant with no entries of its own sees the shared corpus.
    assert ids(kb.retrieve(query, k=5, tenant="acme")) == ids(kb.retrieve(query, k=5))
    # The tenant's private entry joins the merged ranking...
    kb.add(make_entry("private", query), tenant="acme")
    top = kb.retrieve(query, k=1, tenant="acme").hits[0]
    assert (top.entry.entry_id, top.rank) == ("private", 1)
    assert top.distance == pytest.approx(0.0, abs=1e-12)
    # ...but stays invisible to other tenants and to the default view.
    assert "private" not in ids(kb.retrieve(query, k=21, tenant="zeta"))
    assert "private" not in ids(kb.retrieve(query, k=21))
    # Shadowing: the shared entry nearest the query is replaced by beta's
    # far-away entry of the same id, and the next shared entry moves up.
    shared = ids(kb.retrieve(query, k=3))
    kb.add(make_entry(shared[0], -query), tenant="beta")
    beta = kb.retrieve(query, k=3, tenant="beta").hits
    assert [hit.entry.entry_id for hit in beta] == shared[1:] + [ids(kb.retrieve(query, k=4))[3]]
    everything = kb.retrieve(query, k=21, tenant="beta").hits
    assert everything[-1].entry.entry_id == shared[0]
    assert everything[-1].distance == pytest.approx(2.0)
    assert [hit.rank for hit in everything] == list(range(1, 21))


def test_tenant_store_follows_the_default_metric():
    kb = KnowledgeBase(FlatVectorStore(metric="euclidean"))
    kb.add(make_entry("far", np.full(DIM, 3.0)))
    kb.add(make_entry("near", np.full(DIM, 1.5)), tenant="acme")
    hits = kb.retrieve(np.ones(DIM), k=2, tenant="acme").hits
    assert [hit.entry.entry_id for hit in hits] == ["near", "far"]
    assert [hit.distance for hit in hits] == pytest.approx(
        [np.sqrt(DIM) * 0.5, np.sqrt(DIM) * 2.0]
    )


def test_hnsw_default_store_with_tenants():
    kb = KnowledgeBase(HNSWVectorStore(M=8, ef_construction=32, ef_search=16))
    kb.add_many(make_entries(60))
    kb.add_many(make_entries(10, seed=3, prefix="acme"), tenant="acme")
    query = np.random.default_rng(5).normal(size=DIM)
    assert len(kb.retrieve(query, k=4).hits) == 4
    hits = kb.retrieve(query, k=70, tenant="acme").hits
    assert len(hits) == 70
    assert sum(hit.entry.entry_id.startswith("acme-") for hit in hits) == 10


def test_write_listener_reports_tenant():
    kb = KnowledgeBase()
    events: list[tuple[str, str, str]] = []

    def listener(*event: str) -> None:
        events.append(event)

    kb.add_write_listener(listener)
    first, second = make_entries(2)
    kb.add(first, tenant="acme")
    kb.add(second)
    kb.correct("entry-1", "fixed")
    kb.remove("entry-0", tenant="acme")
    assert events == [
        ("add", "entry-0", "acme"),
        ("add", "entry-1", DEFAULT_TENANT),
        ("correct", "entry-1", DEFAULT_TENANT),
        ("remove", "entry-0", "acme"),
    ]
    kb.remove_write_listener(listener)
    kb.remove("entry-1")
    assert len(events) == 4


# --------------------------------------------------- random ops vs reference
TENANTS = (DEFAULT_TENANT, "acme", "beta")
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(("add", "add", "correct", "remove")),
        st.sampled_from(TENANTS),
        st.integers(min_value=0, max_value=5),  # a small id pool forces shadowing
        st.integers(min_value=1, max_value=8),  # k
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(OPERATIONS, st.integers(min_value=0, max_value=2**31))
def test_random_writes_keep_every_tenant_view_exact(operations, seed):
    """After every add/correct/remove in any namespace, each tenant's
    retrieval equals the brute-force top-k of its view (own entries, plus
    shared entries it does not shadow): ordered ids, distances, no leaks."""
    rng = np.random.default_rng(seed)
    queries = [rng.normal(size=DIM) for _ in range(3)]
    kb = KnowledgeBase()
    model: dict[str, dict[str, KnowledgeEntry]] = {tenant: {} for tenant in TENANTS}
    explanations: dict[tuple[str, str], str] = {}
    for step, (operation, tenant, slot, k) in enumerate(operations):
        entry_id = f"id-{slot}"
        present = entry_id in model[tenant]
        if operation == "add" and not present:
            entry = make_entry(entry_id, rng.normal(size=DIM))
            kb.add(entry, tenant=tenant)
            model[tenant][entry_id] = entry
            explanations[tenant, entry_id] = "because"
        elif operation == "correct" and present:
            kb.correct(entry_id, f"fix-{step}", tenant=tenant)
            explanations[tenant, entry_id] = f"fix-{step}"
        elif operation == "remove" and present:
            kb.remove(entry_id, tenant=tenant)
            del model[tenant][entry_id]
        else:
            with pytest.raises(KeyError):
                if operation == "add":
                    kb.add(make_entry(entry_id, rng.normal(size=DIM)), tenant=tenant)
                elif operation == "correct":
                    kb.correct(entry_id, "x", tenant=tenant)
                else:
                    kb.remove(entry_id, tenant=tenant)

        for view_tenant in TENANTS:
            view = dict(model[DEFAULT_TENANT])
            view.update(model[view_tenant])
            assert ids_in(kb, view_tenant) == set(model[view_tenant])
            for query in queries:
                hits = kb.retrieve(query, k=k, tenant=view_tenant).hits
                expected = brute_force_topk(list(view.values()), query, k)
                assert [hit.entry.entry_id for hit in hits] == [e for e, _ in expected]
                assert [hit.distance for hit in hits] == pytest.approx(
                    [d for _, d in expected], abs=1e-12
                )
                for hit in hits:
                    # Each hit is the entry of the namespace that owns it.
                    owner = view_tenant if hit.entry.entry_id in model[view_tenant] else DEFAULT_TENANT
                    assert hit.entry is model[owner][hit.entry.entry_id]
                    assert hit.entry.expert_explanation == explanations[owner, hit.entry.entry_id]


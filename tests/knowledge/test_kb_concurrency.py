"""Concurrent readers and writers on one KnowledgeBase, across tenants."""

from __future__ import annotations

import threading

import numpy as np

from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import DEFAULT_TENANT, KnowledgeBase
from repro.knowledge.vector_store import HNSWVectorStore


def make_entry(name: str, rng: np.random.Generator, dim: int = 8) -> KnowledgeEntry:
    return KnowledgeEntry(
        entry_id=name,
        embedding=rng.normal(size=dim),
        sql=f"SELECT * FROM t -- {name}",
        plan_details="plan",
        faster_engine="ap",
        tp_latency_seconds=0.2,
        ap_latency_seconds=0.1,
        expert_explanation="because",
        factors=("scan",),
    )


def run_threads(
    workers: list[threading.Thread], readers: list[threading.Thread], stop: threading.Event
) -> None:
    """Start everything, wait for the readers, then stop and join the workers."""
    try:
        for thread in workers + readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=30)
    finally:
        stop.set()
        for thread in workers:
            thread.join(timeout=30)


def test_concurrent_readers_and_writers_never_error():
    rng = np.random.default_rng(11)
    kb = KnowledgeBase()
    kb.add_many([make_entry(f"seed-{i}", rng) for i in range(120)])
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer(worker: int) -> None:
        # Writer 0 churns the shared corpus, writer 1 a tenant namespace.
        tenant = DEFAULT_TENANT if worker == 0 else "acme"
        wrng = np.random.default_rng(100 + worker)
        serial = 0
        try:
            while not stop.is_set():
                name = f"w{worker}-{serial}"
                kb.add(make_entry(name, wrng), tenant=tenant)
                if serial % 3 == 0:
                    kb.correct(name, "updated", tenant=tenant)
                kb.remove(name, tenant=tenant)
                serial += 1
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    def reader(worker: int) -> None:
        qrng = np.random.default_rng(200 + worker)
        tenant = DEFAULT_TENANT if worker % 2 == 0 else "acme"
        try:
            for _ in range(150):
                hits = kb.retrieve(qrng.normal(size=8), k=5, tenant=tenant).hits
                assert len(hits) == 5
                assert [hit.rank for hit in hits] == [1, 2, 3, 4, 5]
                # Seed entries never churn, so lookups must always succeed.
                kb.get(f"seed-{int(qrng.integers(0, 120))}")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    run_threads(
        [threading.Thread(target=writer, args=(i,)) for i in range(2)],
        [threading.Thread(target=reader, args=(i,)) for i in range(3)],
        stop,
    )
    assert not errors, errors
    assert len(kb) == 120  # every churn entry was removed again
    assert kb.entries(tenant="acme") == []


def test_tenant_churn_never_leaks_into_other_tenants_reads():
    rng = np.random.default_rng(31)
    kb = KnowledgeBase()
    kb.add_many([make_entry(f"a-{i}", rng) for i in range(60)], tenant="a")
    kb.add_many([make_entry(f"b-{i}", rng) for i in range(60)], tenant="b")
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer_a() -> None:
        wrng = np.random.default_rng(55)
        serial = 0
        try:
            while not stop.is_set():
                name = f"churn-{serial}"
                kb.add(make_entry(name, wrng), tenant="a")
                kb.remove(name, tenant="a")
                serial += 1
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def reader_b() -> None:
        qrng = np.random.default_rng(66)
        try:
            for _ in range(200):
                hits = kb.retrieve(qrng.normal(size=8), k=4, tenant="b").hits
                assert len(hits) == 4
                assert all(hit.entry.entry_id.startswith("b-") for hit in hits)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    run_threads([threading.Thread(target=writer_a)], [threading.Thread(target=reader_b)], stop)
    assert not errors, errors
    assert len(kb.entries(tenant="a")) == 60
    assert len(kb.entries(tenant="b")) == 60


def test_hnsw_bulk_ingest_under_concurrent_retrieval():
    """Bulk add_many into an HNSW store while readers retrieve: no errors,
    no short results once seeded."""
    rng = np.random.default_rng(23)
    kb = KnowledgeBase(HNSWVectorStore(M=8, ef_construction=32, ef_search=16))
    kb.add_many([make_entry(f"seed-{i}", rng) for i in range(80)])
    errors: list[BaseException] = []
    done = threading.Event()

    def writer() -> None:
        wrng = np.random.default_rng(99)
        try:
            for batch in range(6):
                kb.add_many([make_entry(f"b{batch}-{i}", wrng) for i in range(24)])
            for batch in range(6):
                for i in range(24):
                    kb.remove(f"b{batch}-{i}")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            done.set()

    def reader(worker: int) -> None:
        qrng = np.random.default_rng(300 + worker)
        try:
            while not done.is_set():
                assert len(kb.retrieve(qrng.normal(size=8), k=3).hits) == 3
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    writer_thread = threading.Thread(target=writer)
    readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    try:
        for thread in [writer_thread, *readers]:
            thread.start()
    finally:
        writer_thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=30)
    assert not errors, errors
    assert len(kb) == 80

"""The RAG knowledge base (paper Section IV).

A key-value store whose keys are plan-pair embeddings (from the smart
router) and whose values are the full knowledge entries (plan details,
execution result, expert explanation).  The retriever searches it for the
top-K most similar plan pairs; experts can add new entries and correct
existing ones at any time (the paper's feedback loop).

The backing vector index is pluggable (flat or HNSW) so the KB-scaling
ablation can compare both.

Tenancy is a namespace inside the one knowledge base: every read and
write takes a ``tenant`` (default :data:`DEFAULT_TENANT`), and each
tenant's entries live in their own dict and vector store.  The default
namespace is the shared corpus every tenant is grounded on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.locking import ReadWriteLock
from repro.knowledge.vector_store import FlatVectorStore, VectorStore
from repro.obs.tracing import get_tracer

#: Namespace of every operation that names no tenant; it doubles as the
#: shared corpus.  Folding this tenant into a cache fingerprint is defined
#: to be a no-op, so single-tenant deployments get byte-identical keys.
DEFAULT_TENANT = "default"

#: Signature of a knowledge-base write listener: ``(event, entry_id, tenant)``
#: where ``event`` is one of ``"add"``, ``"remove"``, ``"correct"``.
WriteListener = Callable[[str, str, str], None]


@dataclass
class RetrievedKnowledge:
    """One retrieval hit: the entry plus its distance and rank."""

    entry: KnowledgeEntry
    distance: float
    rank: int

    @property
    def similarity(self) -> float:
        """Convenience: cosine similarity when the store uses cosine distance."""
        return 1.0 - self.distance


@dataclass
class RetrievalResult:
    """Top-K retrieval outcome with the time it took."""

    hits: list[RetrievedKnowledge]
    search_seconds: float

    @property
    def search_ms(self) -> float:
        return self.search_seconds * 1000.0

    def entries(self) -> list[KnowledgeEntry]:
        return [hit.entry for hit in self.hits]


@dataclass
class _Namespace:
    """One tenant's entries and the vector store indexing them."""

    store: VectorStore
    entries: dict[str, KnowledgeEntry] = field(default_factory=dict)

    def search(self, query: np.ndarray, k: int) -> list[tuple[KnowledgeEntry, float]]:
        return [
            (self.entries[result.key], result.distance)
            for result in self.store.search(query, k)
            if result.key in self.entries
        ]


class KnowledgeBase:
    """Embedding-keyed store of historical queries and expert explanations.

    Thread safety: all operations take one :class:`ReadWriteLock`, so any
    number of concurrent retrievals proceed in parallel while expert writes
    (add / remove / correct) get exclusive access.  Write listeners — used by
    the serving layer to invalidate its explanation cache — fire *after* the
    write lock is released, so a listener may safely read the knowledge base.

    ``vector_store`` indexes the default namespace; every other tenant gets
    a private :class:`FlatVectorStore` with the same metric, created when
    its first entry is inserted and dropped when its last entry is removed.
    """

    def __init__(self, vector_store: VectorStore | None = None):
        self.vector_store = vector_store if vector_store is not None else FlatVectorStore()
        self._shared = _Namespace(self.vector_store)
        self._namespaces: dict[str, _Namespace] = {DEFAULT_TENANT: self._shared}
        self._insert_counter = 0
        self._lock = ReadWriteLock()
        self._write_listeners: list[WriteListener] = []

    # -------------------------------------------------------------- listeners
    def add_write_listener(self, listener: WriteListener) -> None:
        """Register a callback fired after every successful write."""
        self._write_listeners.append(listener)

    def remove_write_listener(self, listener: WriteListener) -> None:
        self._write_listeners.remove(listener)

    def _notify(self, event: str, entry_id: str, tenant: str) -> None:
        for listener in list(self._write_listeners):
            listener(event, entry_id, tenant)

    # ------------------------------------------------------------------ write
    def _existing(self, entry_id: str, tenant: str) -> _Namespace:
        namespace = self._namespaces.get(tenant)
        if namespace is None or entry_id not in namespace.entries:
            raise KeyError(f"unknown entry id {entry_id!r} for tenant {tenant!r}")
        return namespace

    def _add_unlocked(self, entry: KnowledgeEntry, tenant: str) -> None:
        namespace = self._namespaces.get(tenant)
        if namespace is not None and entry.entry_id in namespace.entries:
            raise KeyError(f"duplicate entry id {entry.entry_id!r}")
        if namespace is None:
            # A tenant's namespace exists only while it holds entries.
            namespace = _Namespace(FlatVectorStore(self.vector_store.metric))
            self._namespaces[tenant] = namespace
        self._insert_counter += 1
        entry.inserted_at = self._insert_counter
        namespace.entries[entry.entry_id] = entry
        namespace.store.add(entry.entry_id, entry.embedding)

    def add(self, entry: KnowledgeEntry, *, tenant: str = DEFAULT_TENANT) -> None:
        """Insert a new entry (raises on an id already in ``tenant``)."""
        with self._lock.write_locked():
            self._add_unlocked(entry, tenant)
        self._notify("add", entry.entry_id, tenant)

    def add_many(self, entries: list[KnowledgeEntry], *, tenant: str = DEFAULT_TENANT) -> None:
        with self._lock.write_locked():
            for entry in entries:
                self._add_unlocked(entry, tenant)
        for entry in entries:
            self._notify("add", entry.entry_id, tenant)

    def remove(self, entry_id: str, *, tenant: str = DEFAULT_TENANT) -> KnowledgeEntry:
        """Remove an entry (used by the stale-expiry curation policy)."""
        with self._lock.write_locked():
            namespace = self._existing(entry_id, tenant)
            namespace.store.remove(entry_id)
            removed = namespace.entries.pop(entry_id)
            if not namespace.entries and namespace is not self._shared:
                del self._namespaces[tenant]
        self._notify("remove", entry_id, tenant)
        return removed

    def correct(
        self,
        entry_id: str,
        corrected_explanation: str,
        factors: tuple[str, ...] | None = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        """Apply an expert correction to an existing entry (paper's feedback loop)."""
        with self._lock.write_locked():
            entry = self._existing(entry_id, tenant).entries[entry_id]
            entry.apply_correction(corrected_explanation, factors)
        self._notify("correct", entry_id, tenant)

    # ------------------------------------------------------------------- read
    def get(self, entry_id: str, *, tenant: str = DEFAULT_TENANT) -> KnowledgeEntry:
        with self._lock.read_locked():
            return self._existing(entry_id, tenant).entries[entry_id]

    def __contains__(self, entry_id: str) -> bool:
        with self._lock.read_locked():
            return entry_id in self._shared.entries

    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self._shared.entries)

    def entries(self, *, tenant: str = DEFAULT_TENANT) -> list[KnowledgeEntry]:
        with self._lock.read_locked():
            namespace = self._namespaces.get(tenant)
            return [] if namespace is None else list(namespace.entries.values())

    # ---------------------------------------------------------------- retrieve
    def retrieve(
        self, embedding: np.ndarray, k: int = 2, *, tenant: str = DEFAULT_TENANT
    ) -> RetrievalResult:
        """Top-K most similar historical plan pairs for ``embedding``.

        ``k=2`` is the paper's default retrieval depth.  The default
        tenant searches the shared corpus alone.  Any other tenant searches
        its own entries *and* the shared corpus: a tenant entry shadows a
        shared entry with the same id, and the merged hits rank by
        ``(distance, entry_id)``.  No tenant ever sees another's entries.
        """
        with get_tracer().span("kb.retrieve", k=k) as span:
            with self._lock.read_locked():
                start = time.perf_counter()
                query = np.asarray(embedding, dtype=np.float64)
                if tenant == DEFAULT_TENANT:
                    pairs = self._shared.search(query, k)
                else:
                    span.set_attribute("tenant", tenant)
                    pairs = self._search_tenant(query, k, tenant)
                elapsed = time.perf_counter() - start
            hits = [
                RetrievedKnowledge(entry=entry, distance=distance, rank=rank)
                for rank, (entry, distance) in enumerate(pairs, start=1)
            ]
            span.set_attribute("hits", len(hits))
            return RetrievalResult(hits=hits, search_seconds=elapsed)

    def _search_tenant(
        self, query: np.ndarray, k: int, tenant: str
    ) -> list[tuple[KnowledgeEntry, float]]:
        """Merged top-K of ``tenant``'s namespace and the shared corpus.

        Caller holds the read lock.  The shared search asks for one extra
        hit per shadowed id, so shadowing never leaves the merge short.
        """
        own = self._namespaces.get(tenant)
        if own is None:
            pairs = self._shared.search(query, k)
        else:
            shadowed = len(own.entries.keys() & self._shared.entries.keys())
            pairs = own.search(query, k) + [
                (entry, distance)
                for entry, distance in self._shared.search(query, k + shadowed)
                if entry.entry_id not in own.entries
            ]
        pairs.sort(key=lambda pair: (pair[1], pair[0].entry_id))
        return pairs[:k]

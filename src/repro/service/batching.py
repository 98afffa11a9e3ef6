"""Micro-batching scheduler for router inference.

Under concurrent load, many worker threads need plan-pair embeddings at
the same time.  Instead of each running its own forward pass, they hand
their plan pair to the :class:`MicroBatcher`, whose single scheduler
thread coalesces whatever arrives into one call to
:meth:`SmartRouter.embed_batch` — one stacked forward pass per batch
instead of N independent ones.  Callers block on a future, so the API
stays synchronous.

The scheduler flushes *greedily*: after the first request it drains
whatever is already queued without waiting, so a lone cold request never
pays the coalescing latency.  Only when that drain proves concurrent
arrivals (more than one request, batch not yet full) does the scheduler
hold the batch open for up to ``max_wait_seconds`` to catch stragglers.

The pending queue is a :class:`WeightedFairQueue` (start-time fair
queueing): each tenant's submissions carry a virtual finish tag advancing
at ``1 / weight`` per request, and the scheduler always pops the smallest
tag — so under contention a hot tenant flooding the batcher still drains
interleaved with everyone else in proportion to weight instead of
starving them.  With a single tenant the tags are monotone and the queue
degrades to plain FIFO.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, TypeVar

import numpy as np

from repro.knowledge.knowledge_base import DEFAULT_TENANT
from repro.obs.tracing import NULL_SPAN, get_tracer
from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.htap.system import PlanPair
    from repro.obs.tracing import Span
    from repro.router.router import SmartRouter

T = TypeVar("T")


class WeightedFairQueue(Generic[T]):
    """Blocking queue with per-tenant weighted fair ordering.

    Start-time fair queueing: item ``i`` from a tenant gets finish tag
    ``max(virtual_time, tenant_last_tag) + 1 / weight`` and :meth:`get`
    pops the smallest tag (FIFO within a tenant, submission order as the
    tiebreak).  Popping advances the virtual clock to the popped tag, so a
    tenant idle for a while does not bank unbounded credit.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, T]] = []
        self._last_tag: dict[str, float] = {}
        self._virtual = 0.0
        self._seq = 0
        self._cond = threading.Condition()

    def put(self, item: T, *, tenant: str = DEFAULT_TENANT, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        with self._cond:
            tag = max(self._virtual, self._last_tag.get(tenant, 0.0)) + 1.0 / weight
            self._last_tag[tenant] = tag
            self._seq += 1
            heapq.heappush(self._heap, (tag, self._seq, item))
            self._cond.notify()

    def get(self, timeout: float | None = None) -> T:
        """Pop the fairest pending item; raises :class:`queue.Empty` on
        timeout like the stdlib queues."""
        with self._cond:
            if not self._heap and not self._cond.wait_for(lambda: bool(self._heap), timeout):
                raise queue.Empty
            tag, _seq, item = heapq.heappop(self._heap)
            self._virtual = max(self._virtual, tag)
            return item

    def get_nowait(self) -> T:
        with self._cond:
            if not self._heap:
                raise queue.Empty
            tag, _seq, item = heapq.heappop(self._heap)
            self._virtual = max(self._virtual, tag)
            return item

    def qsize(self) -> int:
        with self._cond:
            return len(self._heap)


@dataclass
class _PendingEncode:
    plan_pair: "PlanPair"
    future: "Future[np.ndarray]"
    #: Ambient span of the submitting thread, captured at submit time so the
    #: flush (which runs on the scheduler thread, where contextvars from the
    #: submitter are invisible) can re-parent its span under the request.
    parent_span: "Span" = NULL_SPAN
    tenant: str = DEFAULT_TENANT


class MicroBatcher:
    """Coalesces concurrent embedding requests into batched forward passes."""

    def __init__(
        self,
        router: "SmartRouter",
        *,
        max_batch_size: int = 16,
        max_wait_seconds: float = 0.002,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")
        self.router = router
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self.metrics = metrics or MetricsRegistry()
        self._queue: "WeightedFairQueue[_PendingEncode]" = WeightedFairQueue()
        self._closed = threading.Event()
        # Serializes the closed-check-then-enqueue in submit() against
        # close(), so no request can slip into the queue after the drain
        # and leave its future unresolved forever.
        self._submit_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name="embed-microbatcher", daemon=True
        )
        self._thread.start()

    # ----------------------------------------------------------------- public
    def submit(
        self,
        plan_pair: "PlanPair",
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
    ) -> "Future[np.ndarray]":
        """Enqueue one plan pair; the future resolves to its embedding row.

        ``tenant`` / ``weight`` feed the fair queue: under contention a
        tenant's share of flush slots is proportional to its weight.
        """
        pending = _PendingEncode(
            plan_pair=plan_pair,
            future=Future(),
            parent_span=get_tracer().current_span(),
            tenant=tenant,
        )
        with self._submit_lock:
            if self._closed.is_set():
                raise RuntimeError("MicroBatcher is closed")
            self._queue.put(pending, tenant=tenant, weight=weight)
        return pending.future

    def encode(
        self,
        plan_pair: "PlanPair",
        *,
        tenant: str = DEFAULT_TENANT,
        weight: float = 1.0,
    ) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(plan_pair, tenant=tenant, weight=weight).result()

    @property
    def alive(self) -> bool:
        """Whether the scheduler thread is up and accepting submissions.

        This is the liveness signal the admin ``/healthz`` endpoint
        reports: a dead scheduler thread means every future-returning
        submit would hang, which must surface as unhealthy.
        """
        return self._thread.is_alive() and not self._closed.is_set()

    def close(self) -> None:
        """Stop the scheduler thread; fails any still-queued requests."""
        with self._submit_lock:
            if self._closed.is_set():
                return
            self._closed.set()
        self._thread.join(timeout=5.0)
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending.future.set_exception(RuntimeError("MicroBatcher closed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- scheduler
    def _run(self) -> None:
        while not self._closed.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            batch = [first]
            while len(batch) < self.max_batch_size:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            if 1 < len(batch) < self.max_batch_size:
                # Concurrent arrivals observed: hold the batch open for the
                # coalescing window to catch stragglers.  A lone request
                # skips this and flushes immediately.
                deadline = time.perf_counter() + self.max_wait_seconds
                while len(batch) < self.max_batch_size:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        try:
                            batch.append(self._queue.get_nowait())
                        except queue.Empty:
                            break
                    else:
                        try:
                            batch.append(self._queue.get(timeout=remaining))
                        except queue.Empty:
                            break
            self._flush(batch)

    def _flush(self, batch: list[_PendingEncode]) -> None:
        flush_start = time.perf_counter()
        timings: dict[str, float] = {}
        try:
            embeddings = self.router.embed_batch(
                [item.plan_pair for item in batch], timings=timings
            )
        except Exception as exc:  # pragma: no cover - defensive
            for item in batch:
                if not item.future.cancelled():
                    item.future.set_exception(exc)
            return
        flush_end = time.perf_counter()
        # One pre-timed span per coalesced request, re-parented under the
        # span its submitter captured; requests sharing a batch report the
        # same forward-pass window.
        tracer = get_tracer()
        for item in batch:
            tracer.record_span(
                "router.embed_batch",
                parent=item.parent_span,
                start_seconds=flush_start,
                end_seconds=flush_end,
                batch_size=len(batch),
                coalesced=len(batch) > 1,
                featurize_seconds=round(timings.get("featurize_seconds", 0.0), 6),
                forward_seconds=round(timings.get("forward_seconds", 0.0), 6),
            )
        self.metrics.counter("batcher.batches").increment()
        self.metrics.counter("batcher.requests").increment(len(batch))
        if len(batch) > 1:
            self.metrics.counter("batcher.coalesced_requests").increment(len(batch) - 1)
        self.metrics.histogram("batcher.batch_size").record(float(len(batch)))
        for row, item in enumerate(batch):
            if not item.future.cancelled():
                item.future.set_result(embeddings[row])

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict[str, float]:
        batches = self.metrics.counter("batcher.batches").value
        requests = self.metrics.counter("batcher.requests").value
        return {
            "batches": batches,
            "requests": requests,
            "coalesced_requests": self.metrics.counter("batcher.coalesced_requests").value,
            "mean_batch_size": requests / batches if batches else 0.0,
        }

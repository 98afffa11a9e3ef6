"""Timing wrappers around each layer's public calls, and per-request attribution.

For a traced run the benchmark replaces public methods *on the instances it
built* with wrappers that record a span (name, start, end, thread, parent on
the same thread), then restores them.  No code under ``src/`` changes and the
program's own tracer stays off.

Attribution.  A worker thread serves one request at a time, so the spans a
worker records between completing one request and completing the next belong
to the next.  A request's *covered* time is the union of its ``submit`` call,
its queue wait (``ExplainResult.queue_seconds`` from its send) and the
top-level spans its worker recorded; the rest of its wall time, from send to
completion, is the residual.  The router's
forward pass runs on the micro-batcher thread; it is charged to each request
through the ``batching.encode`` span it waited in, whose self time (encode
minus the forward pass it waited for) is the batching wait.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

Extra = Callable[[tuple, dict, Any], Any]


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "children", "info")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def child_time(self) -> float:
        return sum(child.duration for child in self.children)

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def subtree(self) -> list["Span"]:
        return [self, *(node for child in self.children for node in child.subtree())]


class SpanLog:
    """Installs timing wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, bool, Any]] = []

    def wrap(self, obj: object, attr: str, name: str, extra: Extra | None = None) -> None:
        """Replace ``obj.attr`` with a wrapper recording a span named ``name``.

        ``extra(args, kwargs, result)`` may attach information to the span.
        """
        original = getattr(obj, attr)
        shadowed = attr in vars(obj)
        spans = self.spans
        local = self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.children.append(span)
                spans.append(span)
            if extra is not None:
                span.info = extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._installed.append((obj, attr, shadowed, vars(obj).get(attr)))
        setattr(obj, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped callable, newest first."""
        while self._installed:
            obj, attr, shadowed, previous = self._installed.pop()
            if shadowed:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)

    @property
    def installed(self) -> int:
        return len(self._installed)


class EmbedBatch(NamedTuple):
    """What a ``router.embed_batch`` span records about its batch."""

    size: int
    featurize_s: float
    forward_s: float
    pair_ids: frozenset[int]


def _embed_info(args: tuple, kwargs: dict, result: Any) -> EmbedBatch:
    """The featurize/forward split comes from the ``timings`` dict the
    micro-batcher passes."""
    timings = kwargs.get("timings") or {}
    plan_pairs = args[0] if args else kwargs["plan_pairs"]
    return EmbedBatch(
        len(plan_pairs),
        timings.get("featurize_seconds", 0.0),
        timings.get("forward_seconds", 0.0),
        frozenset(id(pair) for pair in plan_pairs),
    )


def install(log: SpanLog, stack: Any) -> None:
    """Wrap the public calls of every layer of ``stack`` (a :class:`Stack`)."""
    service = stack.service
    log.wrap(service, "submit", "service.submit")
    l1 = service.cache.level().explanations
    log.wrap(l1, "get", "service.cache")
    log.wrap(l1, "put", "service.cache")
    log.wrap(service.cache, "get_plan", "service.cache")
    log.wrap(service.cache, "put_plan", "service.cache")
    system = stack.system
    log.wrap(system, "parse", "htap.parse")
    log.wrap(system.tp_optimizer, "optimize", "htap.optimize")
    log.wrap(system.ap_optimizer, "optimize", "htap.optimize")
    log.wrap(system.simulator, "execute", "htap.execute")
    log.wrap(service.batcher, "encode", "batching.encode", lambda a, k, r: id(a[0]))
    log.wrap(stack.router, "embed_batch", "router.embed_batch", _embed_info)
    kb = stack.kb
    log.wrap(kb, "retrieve", "knowledge.retrieve")
    for method in ("add", "correct", "remove"):
        log.wrap(kb, method, "knowledge.write")
    log.wrap(
        service.explainer.prompt_builder, "build", "llm.prompt_build", lambda a, k, r: len(r.text)
    )
    log.wrap(stack.llm, "generate", "llm.generate")


@dataclass
class Attribution:
    """Per-request layer times over a set of requests."""

    requests: int = 0
    wall: float = 0.0
    residual: float = 0.0
    layer: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    featurize: float = 0.0
    forward: float = 0.0

    def per_request_ms(self, seconds: float) -> float:
        return 1000.0 * seconds / self.requests if self.requests else 0.0


def attribute(spans: list[Span], log: Any, indices: list[int]) -> Attribution:
    """Split the wall time of requests ``indices`` of ``log`` (a
    :class:`~perfbench.loadgen.RequestLog`) into layers and a residual."""
    top_by_thread: dict[int, list[Span]] = defaultdict(list)
    embeds_by_pair: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name == "router.embed_batch":
            for pair_id in span.info.pair_ids:
                embeds_by_pair[pair_id].append(span)
        elif span.parent is None and span.name != "service.submit" and span.thread != log.generator_thread:
            top_by_thread[span.thread].append(span)
    starts: dict[int, list[float]] = {}
    for thread, thread_spans in top_by_thread.items():
        thread_spans.sort(key=lambda s: s.start)
        starts[thread] = [s.start for s in thread_spans]

    # Consecutive completions on one worker bound that worker's requests.
    previous_done: dict[int, float] = {}
    interval: dict[int, tuple[int, float, float]] = {}
    for index in sorted(range(len(log)), key=lambda i: log.done[i]):
        thread = log.done_thread[index]
        if thread == log.generator_thread:
            continue
        interval[index] = (thread, previous_done.get(thread, float("-inf")), log.done[index])
        previous_done[thread] = log.done[index]

    sent_to_submit = _match_submits(
        log, [span for span in spans if span.name == "service.submit" and span.parent is None]
    )

    out = Attribution()
    for index in indices:
        outcome = log.outcome[index]
        sent, done = log.sent[index], log.completion(index)
        submit = sent_to_submit.get(index)
        intervals = [(sent, sent + outcome.queue_s)]
        if submit is not None:
            intervals.append((submit.start, submit.end))
            out.layer["service.submit"] += submit.self_time
            out.layer["service.cache"] += submit.child_time
        out.layer["service.queue"] += outcome.queue_s
        if index in interval:
            thread, lo, hi = interval[index]
            thread_spans = top_by_thread.get(thread, [])
            first = bisect.bisect_right(starts.get(thread, []), lo)
            for span in thread_spans[first:]:
                if span.start > hi:
                    break
                intervals.append((span.start, span.end))
                _charge(out, span, embeds_by_pair)
        out.requests += 1
        out.wall += done - sent
        out.residual += done - sent - _covered(intervals, sent, done)
    return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` within [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _charge(out: Attribution, span: Span, embeds_by_pair: dict[int, list[Span]]) -> None:
    """Add the self time of ``span`` and of every span under it to the layers."""
    for node in span.subtree():
        if node.name == "batching.encode":
            embed = _embed_for(node, embeds_by_pair)
            forward = embed.duration if embed is not None else 0.0
            out.layer["batching.wait"] += node.self_time - forward
            out.layer["router.embed"] += forward
            if embed is not None:
                out.featurize += embed.info.featurize_s
                out.forward += embed.info.forward_s
        else:
            out.layer[node.name] += node.self_time


def _embed_for(encode: Span, embeds_by_pair: dict[int, list[Span]]) -> Span | None:
    for embed in embeds_by_pair.get(encode.info, ()):
        if encode.start <= embed.start and embed.end <= encode.end:
            return embed
    return None


def _match_submits(log: Any, submit_spans: list[Span]) -> dict[int, Span]:
    """The ``service.submit`` span inside each request's send window."""
    ordered = sorted(submit_spans, key=lambda s: s.start)
    starts = [s.start for s in ordered]
    matched: dict[int, Span] = {}
    for index in range(len(log)):
        position = bisect.bisect_left(starts, log.sent[index])
        if position < len(ordered) and ordered[position].end <= log.returned[index]:
            matched[index] = ordered[position]
    return matched

"""Single-thread load generator: an open-loop schedule and a closed-loop phase.

The generator shares the service's process and interpreter lock, so it can
run late.  Every latency is therefore measured from the request's
*scheduled* send time, never from when it was actually sent: a stall that
delays later sends is counted against those requests (no coordinated
omission), and the lateness itself is recorded per operation.

The generator also records the CPU time its own thread spends inside the
program's calls (``submit`` and the writes), so that the CPU the process
used in a phase can be split into the program's work and the generator's own.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from perfbench.inputs import Op, Request, Write

#: How long a phase waits for its outstanding requests before failing.
DRAIN_TIMEOUT_S = 60.0

Submit = Callable[..., "Future[Any]"]


@dataclass(frozen=True, slots=True)
class Answer:
    """What the benchmark keeps of one served explanation: enough to check it
    against the inline explainer and to grade it, without keeping the
    explanation's object graph alive."""

    entry_ids: tuple[str, ...]
    text: str
    claims: dict
    faster_engine: Any
    is_none_answer: bool
    prompt: str | None

    @property
    def cited_factors(self) -> list[str]:
        return list(self.claims.get("factors", []))

    @classmethod
    def of(cls, explanation: Any, *, keep_prompt: bool) -> "Answer":
        return cls(
            entry_ids=tuple(hit.entry.entry_id for hit in explanation.retrieved),
            text=explanation.text,
            claims=explanation.claims,
            faster_engine=explanation.faster_engine,
            is_none_answer=explanation.is_none_answer,
            prompt=explanation.prompt.text if keep_prompt else None,
        )


@dataclass(slots=True)
class Outcome:
    ok: bool
    code: str | None
    l1_hit: bool
    l2_hit: bool
    queue_s: float
    total_s: float
    answer: Answer | None


class RequestLog:
    """Timestamps and outcomes of the explain requests of one phase.

    ``keep(index, request)`` decides whose answers are kept; it is called in
    :meth:`send`, on the generator thread and in send order, so the choice
    depends on the seed alone.  The completion callback runs on whichever
    thread completes the future, so it only reads the result and stores a
    few fields.
    """

    def __init__(self, keep: Callable[[int, Request], tuple[bool, bool]] = lambda i, r: (False, False)):
        self.keep = keep
        self.requests: list[Request] = []
        self.due: list[float] = []
        self.sent: list[float] = []
        self.returned: list[float] = []
        self.done: list[float] = []
        self.done_thread: list[int] = []
        self.outcome: list[Outcome | None] = []
        #: (keep the answer, keep its prompt too) per request.
        self.kept: list[tuple[bool, bool]] = []
        #: CPU seconds the generator thread spent inside ``submit`` calls.
        self.submit_cpu = 0.0
        self.generator_thread = threading.get_ident()
        self._pending: dict[int, Future] = {}
        self.on_done: Callable[[int], None] | None = None

    def __len__(self) -> int:
        return len(self.requests)

    def send(self, submit: Submit, request: Request, due: float) -> None:
        index = len(self.requests)
        self.requests.append(request)
        self.due.append(due)
        self.done.append(float("nan"))
        self.done_thread.append(0)
        self.outcome.append(None)
        self.kept.append(self.keep(index, request))
        cpu = time.thread_time()
        self.sent.append(time.perf_counter())
        future = submit(request.sql)
        self.returned.append(time.perf_counter())
        self.submit_cpu += time.thread_time() - cpu
        self._pending[index] = future
        future.add_done_callback(lambda f, i=index: self._complete(i, f))

    def _complete(self, index: int, future: Future) -> None:
        now = time.perf_counter()
        result = future.result()
        keep_answer, keep_prompt = self.kept[index]
        explanation = result.explanation
        self.outcome[index] = Outcome(
            ok=result.ok,
            code=result.error.code.value if result.error is not None else None,
            l1_hit=result.cache_hit,
            l2_hit=result.plan_cache_hit,
            queue_s=result.queue_seconds,
            total_s=result.total_seconds,
            answer=(
                Answer.of(explanation, keep_prompt=keep_prompt)
                if keep_answer and explanation is not None
                else None
            ),
        )
        self.done_thread[index] = threading.get_ident()
        self.done[index] = now
        self._pending.pop(index, None)
        if self.on_done is not None:
            self.on_done(index)

    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> None:
        """Wait for every outstanding request; a request that never
        completes is a hang and fails the run."""
        _, not_done = wait(list(self._pending.values()), timeout=timeout)
        if not_done:
            raise RuntimeError(f"{len(not_done)} requests still outstanding after {timeout}s")

    def completion(self, index: int) -> float:
        """When request ``index`` completed, as its caller would observe it.

        A callback that ran on a worker thread fired at completion.  One
        that ran on the generator thread was attached to an already
        completed future: either an L1 hit answered inside ``submit`` (done
        when ``submit`` returned) or a request a worker finished before the
        generator attached the callback (done at the service's own
        ``total_seconds`` after sending).
        """
        done = self.done[index]
        if self.done_thread[index] != self.generator_thread:
            return done
        outcome = self.outcome[index]
        return min(done, max(self.returned[index], self.sent[index] + outcome.total_s))

    def latency(self, index: int) -> float:
        """Seconds from the scheduled send time to completion."""
        return self.completion(index) - self.due[index]


@dataclass
class WriteLog:
    kinds: list[str]
    due: list[float]
    sent: list[float]
    returned: list[float]
    #: CPU seconds of the calling thread in each write, listeners included.
    cpu: list[float]
    errors: list[str]

    @classmethod
    def empty(cls) -> "WriteLog":
        return cls([], [], [], [], [], [])

    def latencies(self) -> list[float]:
        return [end - due for end, due in zip(self.returned, self.due)]


def _timed_write(op: Op, due: float, write: Callable[[Write], None], writes: WriteLog) -> None:
    writes.kinds.append(op.write.kind)
    writes.due.append(due)
    cpu = time.thread_time()
    writes.sent.append(time.perf_counter())
    try:
        write(op.write)
    except Exception as exc:  # noqa: BLE001 - a failed write is counted, not fatal
        writes.errors.append(f"{op.write.kind} {op.write.target}: {type(exc).__name__}: {exc}")
    writes.returned.append(time.perf_counter())
    writes.cpu.append(time.thread_time() - cpu)


def run_open_loop(
    ops: Sequence[Op],
    submit: Submit,
    write: Callable[[Write], None],
    log: RequestLog,
    writes: WriteLog,
) -> tuple[float, float]:
    """Send ``ops`` on their schedule; returns the phase's (start, end)."""
    start = time.perf_counter()
    for op in ops:
        due = start + op.at
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if op.request is not None:
            log.send(submit, op.request, due)
        else:
            _timed_write(op, due, write, writes)
    end = time.perf_counter()
    log.drain()
    return start, end


def run_closed_loop(
    requests: Iterator[Request],
    submit: Submit,
    log: RequestLog,
    *,
    outstanding: int,
    seconds: float,
) -> tuple[float, float]:
    """Keep ``outstanding`` requests in flight for ``seconds``; each is due
    when it is sent.  Returns the phase's (start, end)."""
    completions: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    log.on_done = completions.put
    start = time.perf_counter()
    end = start + seconds
    in_flight = 0
    try:
        while True:
            now = time.perf_counter()
            if now >= end:
                break
            while in_flight < outstanding:
                log.send(submit, next(requests), time.perf_counter())
                in_flight += 1
            try:
                completions.get(timeout=end - now)
            except queue.Empty:
                break
            in_flight -= 1
    finally:
        log.on_done = None
    log.drain()
    return start, end

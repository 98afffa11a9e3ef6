"""One benchmark run: set up, drive the phases, check the outputs, compute metrics.

A run is: generate the seeded inputs; build the stack ``SETUP_REPEATS``
times (the last build is kept); warm up; then the timed phases, the
open-loop schedule and the closed-loop phase; then, untimed, the correctness
oracle and the accuracy grading.

``setup_s`` is the CPU time from process start to the first request that
can be sent, less the benchmark's own input generation, with the median of
the builds standing for the build.  It is CPU time, not wall time, because
on a shared host the wall time of the same build spreads about three times
as much (2.4-3.7 s against 2.1-2.3 s of CPU in one set of builds).  ``service_cpu_ms`` is the CPU time the
program used in the open-loop phase per request sent: the process's CPU
time less what the load-generator thread spent outside the program's calls.
"""

from __future__ import annotations

import gc
import gzip
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracing import get_tracer

from perfbench import inputs as inputs_mod
from perfbench import layers, oracle, stats
from perfbench import stack as stack_mod
from perfbench.config import (
    CLOSED_OUTSTANDING,
    OPEN_SHARE,
    ORACLE_SAMPLE,
    SERVICE_CONFIG,
    SETUP_REPEATS,
    WorkloadSpec,
)
from perfbench.inputs import Inputs, Request, Write
from perfbench.loadgen import RequestLog, WriteLog, run_closed_loop, run_open_loop
from perfbench.runtime import GCWatch, cpu_ticks, environment, peak_rss_mb


class _Keeper:
    """Decides, in send order, whose answers a log keeps: the first
    answer for every SQL, for grading, and the prompt too for a seeded sample
    of requests, for the oracle."""

    def __init__(self, seed: str, rate: float, budget: int):
        self._rng = random.Random(seed)
        self._rate = rate
        self._budget = budget
        self._seen: set[str] = set()

    def __call__(self, index: int, request: Request) -> tuple[bool, bool]:
        first = request.sql not in self._seen
        if first:
            self._seen.add(request.sql)
        sampled = self._budget > 0 and self._rng.random() < self._rate
        if sampled:
            self._budget -= 1
        return first or sampled, sampled


@dataclass
class Phases:
    """Everything the timed phases recorded."""

    open_log: RequestLog
    closed_log: RequestLog
    writes: WriteLog = field(default_factory=WriteLog.empty)
    open_window: tuple[float, float] = (0.0, 0.0)
    closed_window: tuple[float, float] = (0.0, 0.0)
    snapshots: list[dict] = field(default_factory=list)
    spans: layers.SpanLog = field(default_factory=layers.SpanLog)
    gc: GCWatch = field(default_factory=GCWatch)
    #: CPU seconds the program used in each phase (see :func:`_program_cpu`).
    open_cpu_s: float = 0.0
    closed_cpu_s: float = 0.0
    steal_share: float = 0.0
    tracer_enabled: list[bool] = field(default_factory=list)
    wrapped: int = 0

    def lateness(self) -> list[float]:
        return [sent - due for sent, due in zip(self.open_log.sent, self.open_log.due)] + [
            sent - due for sent, due in zip(self.writes.sent, self.writes.due)
        ]

    def open_ok(self) -> list[int]:
        return [i for i, outcome in enumerate(self.open_log.outcome) if outcome.ok]

    def open_latencies(self) -> list[float]:
        return [self.open_log.latency(i) for i in self.open_ok()]


def _write_fn(stack: stack_mod.Stack, add_entries):
    service, kb = stack.service, stack.kb

    def write(op: Write) -> None:
        if op.kind == "add":
            kb.add(add_entries[int(op.target)])
        elif op.kind == "correct":
            kb.correct(op.target, op.text)
        elif op.kind == "remove":
            kb.remove(op.target)
        elif op.kind == "create_index":
            service.create_index(op.target, op.text)
        elif op.kind == "drop_index":
            service.drop_index(f"idx_{op.target}_{op.text}")
        else:
            raise ValueError(f"unknown write kind {op.kind!r}")

    return write


def _program_cpu(process0: float, thread0: float, inside: float) -> float:
    """CPU seconds the program used since ``process0``/``thread0`` (process
    and generator-thread CPU clocks): the process's CPU minus what the
    generator thread spent outside the program's calls (``inside`` is the
    CPU it spent inside them)."""
    return (time.process_time() - process0) - (time.thread_time() - thread0 - inside)


def _set_up(inputs: Inputs) -> tuple[stack_mod.Stack, list[float], list[float]]:
    """Build the stack ``SETUP_REPEATS`` times, keeping the last build; each
    earlier stack is shut down and collected before the next build starts,
    so peak memory is that of one stack.  Returns the stack and the CPU and
    wall seconds of each build."""
    cpu_times: list[float] = []
    wall_times: list[float] = []
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        cpu = time.process_time()
        stack, seconds = stack_mod.build(inputs.kb_source)
        cpu_times.append(time.process_time() - cpu)
        wall_times.append(seconds)
    return stack, cpu_times, wall_times


def _drive(stack: stack_mod.Stack, inputs: Inputs, seed: int, seconds: float, trace: bool) -> Phases:
    spec, service = inputs.spec, stack.service
    open_requests = sum(1 for op in inputs.open_ops if op.request is not None)
    keep = _Keeper(f"{spec.name}:{seed}:sample", min(1.0, ORACLE_SAMPLE / (2 * open_requests)), ORACLE_SAMPLE)
    phases = Phases(RequestLog(keep), RequestLog(keep))
    write = _write_fn(stack, stack.entries_for(inputs.add_pool))
    # The labelled queries behind the knowledge base and the added entries
    # are the benchmark's, not the program's: left alive they would make up
    # most of the heap the collector walks in the timed phases.
    inputs.kb_source, inputs.add_pool = None, []
    # Start every run from the same collector state: the garbage of the
    # discarded builds and of input generation is not the program's.
    gc.collect()
    phases.tracer_enabled.append(get_tracer().enabled)
    steal0, total0 = cpu_ticks()
    with phases.gc:
        if trace:
            layers.install(phases.spans, stack)
        phases.wrapped = phases.spans.installed
        submit = service.submit
        phases.snapshots.append(service.metrics_snapshot())
        cpu = time.process_time(), time.thread_time()
        phases.open_window = run_open_loop(inputs.open_ops, submit, write, phases.open_log, phases.writes)
        phases.open_cpu_s = _program_cpu(*cpu, phases.open_log.submit_cpu + sum(phases.writes.cpu))
        phases.snapshots.append(service.metrics_snapshot())
        cpu = time.process_time(), time.thread_time()
        phases.closed_window = run_closed_loop(
            inputs.closed_requests(),
            submit,
            phases.closed_log,
            outstanding=CLOSED_OUTSTANDING,
            seconds=seconds * (1.0 - OPEN_SHARE),
        )
        phases.closed_cpu_s = _program_cpu(*cpu, phases.closed_log.submit_cpu)
        phases.snapshots.append(service.metrics_snapshot())
        phases.spans.restore()
    steal1, total1 = cpu_ticks()
    phases.steal_share = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    phases.tracer_enabled.append(get_tracer().enabled)
    return phases


@dataclass
class Checks:
    failures: list[str]
    checked: int = 0
    ties: int = 0
    reserved: int = 0
    graded: int = 0
    accuracy: float = 0.0


def _check(stack: stack_mod.Stack, inputs: Inputs, seed: int, trace: bool, phases: Phases) -> Checks:
    spec = inputs.spec
    failures: list[str] = []
    if any(phases.tracer_enabled):
        failures.append("the program's own tracer was enabled during the run")
    if phases.spans.installed or (phases.wrapped and not trace):
        failures.append("timing wrappers were left installed, or installed in an untraced run")
    failures.extend(phases.writes.errors)
    logs = (phases.open_log, phases.closed_log)
    for log in logs:
        for request, outcome in zip(log.requests, log.outcome):
            if not outcome.ok:
                failures.append(f"request {request.sql[:60]!r} failed: {outcome.code}")
    result = Checks(failures)
    if spec.write_rate:
        # The write stream has stopped: serve a sample again and check it
        # against the inline explainer on the final knowledge base.
        keys = sorted({r for log in logs for r in log.requests}, key=lambda r: r.sql)
        sample = random.Random(f"{spec.name}:{seed}:reserve").sample(keys, min(ORACLE_SAMPLE, len(keys)))
        reserved = oracle.reserve(stack, sample)
        result.reserved = len(reserved)
        failures.extend(f"re-served request failed: {code}" for _, answer, code in reserved if answer is None)
        checks = [(request, answer) for request, answer, _ in reserved if answer is not None]
    else:
        checks = [
            (request, outcome.answer)
            for log in logs
            for request, outcome in zip(log.requests, log.outcome)
            if outcome.answer is not None and outcome.answer.prompt is not None
        ]
    result.checked, result.ties, mismatches = oracle.compare(stack, checks)
    failures.extend(f"oracle mismatch: {message}" for message in mismatches)
    # Grade the first answer served for each distinct SQL: the ground truth
    # depends on the SQL alone, and weighting by repeats would let a few hot
    # queries decide the share.
    first: dict[str, tuple] = {}
    for request, outcome in zip(phases.open_log.requests, phases.open_log.outcome):
        if outcome.answer is not None:
            first.setdefault(request.sql, (request, outcome.answer))
    result.graded = len(first)
    result.accuracy = oracle.accuracy(stack, first.values(), inputs.queries)
    return result


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def _end_to_end(spec: WorkloadSpec, phases: Phases, checks: Checks, setup_s: float) -> dict:
    open_log, latencies = phases.open_log, phases.open_latencies()
    within = sum(1 for latency in latencies if latency <= spec.limit_ms / 1000.0)
    return {
        "service_cpu_ms": _metric(_ms(phases.open_cpu_s) / len(open_log), "ms"),
        "slo_attainment": _metric(within / len(open_log), "ratio"),
        "accuracy": _metric(checks.accuracy, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def _wall_clock(phases: Phases) -> dict[str, float]:
    """The untraced run's wall-clock figures.  They follow the host's CPU
    steal more than the program (see ``config.py``), so they are reported
    in the ``env`` record and by ``report.py``, and not gated."""
    latencies = phases.open_latencies()
    start, end = phases.closed_window
    closed_log = phases.closed_log
    closed_ok = sum(
        1 for i, outcome in enumerate(closed_log.outcome) if outcome.ok and closed_log.completion(i) <= end
    )
    figures = {
        "latency_p50_ms": _ms(stats.percentile(latencies, 50)),
        "latency_p99_ms": _ms(stats.percentile(latencies, 99)),
        "saturated_rps": closed_ok / (end - start),
        "saturated_cpu_ms": _ms(phases.closed_cpu_s) / len(closed_log),
    }
    if phases.writes.kinds:
        write_latencies = phases.writes.latencies()
        figures["write_p50_ms"] = _ms(stats.percentile(write_latencies, 50))
        figures["write_p90_ms"] = _ms(stats.percentile(write_latencies, 90))
        figures["write_cpu_p50_ms"] = _ms(stats.percentile(phases.writes.cpu, 50))
    return figures


def _p50_p99_ms(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    return _ms(stats.percentile(values, 50)), _ms(stats.percentile(values, 99))


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return int(after.get(name, 0)) - int(before.get(name, 0))


def _batch_mean(before: dict, after: dict) -> float:
    batches = after["batching"]["batches"] - before["batching"]["batches"]
    requests = after["batching"]["requests"] - before["batching"]["requests"]
    return requests / batches if batches else 0.0


def _per_layer(phases: Phases) -> dict:
    open_log, closed_log = phases.open_log, phases.closed_log
    spans = phases.spans.spans
    ok_open = phases.open_ok()
    outcomes = [open_log.outcome[i] for i in ok_open]
    misses = [o for o in outcomes if not o.l1_hit]
    start = phases.open_window[0]
    # Spans that started in the open-loop phase (its requests may finish
    # after the last send, so the phase's spans run until the drain).
    in_open = [s for s in spans if start <= s.start <= phases.closed_window[0]]
    attribution = layers.attribute(spans, open_log, ok_open)
    closed = layers.attribute(spans, closed_log, [i for i, o in enumerate(closed_log.outcome) if o.ok])
    per_request = attribution.per_request_ms
    submit_p50, submit_p99 = _p50_p99_ms(
        [s.duration for s in in_open if s.name == "service.submit" and s.parent is None]
    )
    queue_p50, queue_p99 = _p50_p99_ms([o.queue_s for o in misses])
    embeds = [s.info.size for s in in_open if s.name == "router.embed_batch"]
    prompt_chars = [s.info for s in in_open if s.name == "llm.prompt_build"]
    writes = [s.duration for s in spans if s.name == "knowledge.write"]
    s0, s1, s2 = phases.snapshots
    gc_pause, gc2 = phases.gc.within(start, phases.closed_window[0])
    traced_latencies = [open_log.latency(i) for i in ok_open]
    return {
        "loadgen.late_p99_ms": _metric(_ms(stats.percentile(phases.lateness(), 99)), "ms"),
        "loadgen.sent": _metric(len(open_log), "count"),
        "loadgen.ok": _metric(len(ok_open), "count"),
        "loadgen.failed": _metric(
            len(open_log) - len(ok_open) + len(phases.writes.errors), "count"
        ),
        "trace.latency_p50_ms": _metric(_ms(stats.percentile(traced_latencies, 50)), "ms"),
        "service.submit_p50_ms": _metric(submit_p50, "ms"),
        "service.submit_p99_ms": _metric(submit_p99, "ms"),
        "service.queue_p50_ms": _metric(queue_p50, "ms"),
        "service.queue_p99_ms": _metric(queue_p99, "ms"),
        "service.l1_hit_ratio": _metric((len(outcomes) - len(misses)) / len(outcomes), "ratio"),
        "service.l2_hit_ratio": _metric(
            sum(1 for o in misses if o.l2_hit) / len(misses) if misses else 0.0, "ratio"
        ),
        "service.invalidations.kb_write": _metric(_counter_delta(s0, s1, "invalidations.kb_write"), "count"),
        "service.invalidations.ddl": _metric(_counter_delta(s0, s1, "invalidations.ddl"), "count"),
        "service.cache_ms": _metric(per_request(attribution.layer["service.cache"]), "ms"),
        "htap.parse_ms": _metric(per_request(attribution.layer["htap.parse"]), "ms"),
        "htap.optimize_ms": _metric(per_request(attribution.layer["htap.optimize"]), "ms"),
        "htap.execute_ms": _metric(per_request(attribution.layer["htap.execute"]), "ms"),
        "router.embed_ms": _metric(per_request(attribution.layer["router.embed"]), "ms"),
        "router.featurize_ms": _metric(per_request(attribution.featurize), "ms"),
        "router.forward_ms": _metric(per_request(attribution.forward), "ms"),
        "router.batch_size": _metric(stats.mean(embeds), "count"),
        "batching.wait_ms": _metric(per_request(attribution.layer["batching.wait"]), "ms"),
        "batching.mean_batch_size": _metric(_batch_mean(s0, s1), "count"),
        "batching.closed_wait_ms": _metric(closed.per_request_ms(closed.layer["batching.wait"]), "ms"),
        "batching.closed_mean_batch_size": _metric(_batch_mean(s1, s2), "count"),
        "knowledge.retrieve_ms": _metric(per_request(attribution.layer["knowledge.retrieve"]), "ms"),
        "knowledge.write_ms": _metric(_ms(stats.mean(writes)), "ms"),
        "llm.prompt_build_ms": _metric(per_request(attribution.layer["llm.prompt_build"]), "ms"),
        "llm.generate_ms": _metric(per_request(attribution.layer["llm.generate"]), "ms"),
        "llm.prompt_chars": _metric(stats.mean(prompt_chars), "count"),
        "runtime.gc_pause_ms": _metric(_ms(gc_pause), "ms"),
        "runtime.gc2_collections": _metric(gc2, "count"),
        "request.wall_ms": _metric(per_request(attribution.wall), "ms"),
        "request.residual_ms": _metric(per_request(attribution.residual), "ms"),
        "request.residual_share": _metric(
            attribution.residual / attribution.wall if attribution.wall else 0.0, "ratio"
        ),
    }


#: Metric names, in report order, as ``BENCHMARK.json`` lists them.
END_TO_END = (
    "service_cpu_ms", "slo_attainment", "accuracy", "peak_rss_mb", "setup_s",
)
PER_LAYER = (
    "loadgen.late_p99_ms", "loadgen.sent", "loadgen.ok", "loadgen.failed", "trace.latency_p50_ms",
    "service.submit_p50_ms", "service.submit_p99_ms", "service.queue_p50_ms", "service.queue_p99_ms",
    "service.l1_hit_ratio", "service.l2_hit_ratio", "service.invalidations.kb_write",
    "service.invalidations.ddl", "service.cache_ms", "htap.parse_ms", "htap.optimize_ms",
    "htap.execute_ms", "router.embed_ms", "router.featurize_ms", "router.forward_ms",
    "router.batch_size", "batching.wait_ms", "batching.mean_batch_size", "batching.closed_wait_ms",
    "batching.closed_mean_batch_size", "knowledge.retrieve_ms", "knowledge.write_ms",
    "llm.prompt_build_ms", "llm.generate_ms", "llm.prompt_chars", "runtime.gc_pause_ms",
    "runtime.gc2_collections", "request.wall_ms", "request.residual_ms", "request.residual_share",
)


def _write_spans(path: Path, spans: list[layers.Span]) -> None:
    index = {id(span): n for n, span in enumerate(spans)}
    with gzip.open(path, "wt") as handle:
        for span in spans:
            parent = index.get(id(span.parent)) if span.parent is not None else None
            info = span.info if isinstance(span.info, (int, float)) else None
            handle.write(json.dumps([span.name, span.start, span.end, span.thread, parent, info]) + "\n")


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, root: Path, started: float):
    """Run one workload; returns the ``env`` record and the result object."""
    imported = time.perf_counter() - started
    imported_cpu = time.process_time()
    t = time.perf_counter()
    inputs = inputs_mod.build(spec, seed, seconds)
    inputs_s = time.perf_counter() - t
    stack, setup_cpu, setup_wall = _set_up(inputs)
    setup_s = imported_cpu + statistics.median(setup_cpu)
    warmup_failed = [
        request.sql[:60]
        for request in inputs.warmup
        if not stack.service.explain(request.sql).ok
    ]
    t = time.perf_counter()
    phases = _drive(stack, inputs, seed, seconds, trace)
    drive_s = time.perf_counter() - t
    checks = _check(stack, inputs, seed, trace, phases)
    check_s = time.perf_counter() - t - drive_s
    checks.failures.extend(f"warm-up request failed: {sql!r}" for sql in warmup_failed)

    samples = {
        "latency_p50_ms": (len(phases.open_ok()), 50),
        "latency_p99_ms": (len(phases.open_ok()), 99),
        "loadgen.late_p99_ms": (len(phases.lateness()), 99),
    }
    if phases.writes.kinds:
        samples["write_p50_ms"] = (len(phases.writes.kinds), 50)
        samples["write_p90_ms"] = (len(phases.writes.kinds), 90)
    beyond = {name: stats.beyond(n, p) for name, (n, p) in samples.items()}
    unsupported = [name for name, (n, p) in samples.items() if not stats.supported(n, p)]
    if trace:
        metrics = _per_layer(phases)
        out = root / ".perfbench"
        out.mkdir(exist_ok=True)
        _write_spans(out / f"spans-{spec.name}-{seed}.jsonl.gz", phases.spans.spans)
    else:
        metrics = _end_to_end(spec, phases, checks, setup_s)
    expected = PER_LAYER if trace else END_TO_END
    if tuple(metrics) != expected:
        checks.failures.append(f"metrics {sorted(set(metrics) ^ set(expected))} do not match the list")
    env = {
        **environment(),
        "workload": spec.as_dict(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "service_config": SERVICE_CONFIG.as_dict(),
        "import_s": imported,
        "import_cpu_s": imported_cpu,
        "inputs_s": inputs_s,
        "setup_cpu_s_each": setup_cpu,
        "setup_wall_s_each": setup_wall,
        "drive_s": drive_s,
        "check_s": check_s,
        "open_requests": len(phases.open_log),
        "closed_requests": len(phases.closed_log),
        "writes": len(phases.writes.kinds),
        "wall_clock": _wall_clock(phases),
        "samples_beyond": beyond,
        "unsupported_percentiles": unsupported,
        "oracle_checked": checks.checked,
        "oracle_tie_divergences": checks.ties,
        "reserved": checks.reserved,
        "graded": checks.graded,
        "gc2_collections": sum(1 for _, generation, _ in phases.gc.pauses if generation == 2),
        "gc_pause_total_ms": _ms(sum(pause for _, _, pause in phases.gc.pauses)),
        "cpu_steal_share": phases.steal_share,
        "peak_rss_mb": peak_rss_mb(),
        "tracer_enabled": phases.tracer_enabled,
        "wrappers_installed": phases.wrapped,
        "failures": checks.failures[:20],
    }
    attempted = (
        len(phases.open_log)
        + len(phases.closed_log)
        + len(phases.writes.kinds)
        + checks.reserved
    )
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    stack.close()
    return env, result

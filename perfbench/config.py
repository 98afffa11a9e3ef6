"""Workload definitions: offered rates, latency limits and the service config.

This module is the one place a workload's parameters live; every run prints
them (``workload`` and ``service_config`` in its ``env`` line) so a result
can be read without the code.

At the benchmark's 40 s per run, the open-loop phase lasts 36 s, which gives
each workload 1,800 requests (18 beyond the p99) and ``kb_feedback`` about
256 writes (25 beyond the p90).  A run takes 50-70 s in all.

What is gated and what is only reported.  On the shared two-core host the
benchmark was built on, wall-clock latency follows the host's CPU steal
(time the hypervisor gives the machine's cores to other tenants) more than
the program: the same ``kb_feedback`` run has a p50 of 3.0 ms at 0.5 % steal
and 5.5 ms at 14 %, and p50 and p99 spread 0.3-0.8 (quartile distance over
median) across runs.  The gated end-to-end metrics are therefore the ones
that repeat: the program's CPU time per request, the share of requests
within the latency limit, answer accuracy, peak memory and set-up time.
Latency percentiles, closed-loop throughput and write latency are measured
in every run and reported (the ``wall_clock`` record), not gated.

There is no hot-repeat workload (Zipf repeats answered from the L1 cache
inside ``submit``): its requests cost about 0.3 ms of CPU, and at that size
the CPU time per request grew with steal from 0.30 ms to 0.51 ms (spread
0.27 over ten runs), so it could not be gated.  ``kb_feedback`` still
measures the caches: its hot SQL hits L1 between writes and L2 after them.

The open-loop rates sit well below capacity: a cold request costs about
3 ms of CPU, so 50 req/s keeps the program about 15 % busy, while the
closed-loop capacity of ``cold_mix`` was 150-360 req/s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.service.config import ServiceConfig

#: Service configuration used by every workload.  Two workers because the
#: reference machine has two cores; a large in-flight budget and no deadline
#: so that a backlog shows as latency, not as shed requests.
SERVICE_CONFIG = ServiceConfig(
    top_k=2,
    max_workers=2,
    max_in_flight=4096,
    default_deadline_seconds=None,
    explanation_cache_capacity=512,
    plan_cache_capacity=2048,
    batch_max_size=16,
    batch_max_wait_seconds=0.002,
)

#: Share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed-loop phase that measures ``saturated_rps``.
OPEN_SHARE = 0.9
#: Stack builds per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Requests kept outstanding in the closed-loop phase.
CLOSED_OUTSTANDING = 8
#: Served answers re-checked against the inline explainer per run.
ORACLE_SAMPLE = 200
#: Distinct SQL of the hot set and the Zipf exponent of their popularity.
HOT_SET = 200
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    #: Open-loop explain arrivals per second (Poisson).
    rate_rps: float
    #: Latency limit for ``slo_attainment``.
    limit_ms: float
    #: Share of explain requests that are new, distinct SQL (the rest are
    #: Zipf draws from the hot set); 1.0 means every request is distinct.
    new_share: float = 1.0
    #: Expert writes per second during the open-loop phase.
    write_rate: float = 0.0
    #: Labelled entries in the knowledge base, drawn from the workload's
    #: generator; ``None`` is the paper's 20-entry set.
    kb_entries: int | None = None

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="cold_mix",
            rate_rps=50.0,
            limit_ms=50.0,
        ),
        WorkloadSpec(
            name="kb_feedback",
            rate_rps=50.0,
            limit_ms=25.0,
            new_share=0.3,
            write_rate=7.0,
            kb_entries=2000,
        ),
    )
}

#: DDL issued during ``kb_feedback``: columns no query template references, so
#: plans (and ground truth) stay the same while the caches are still cleared.
DDL_COLUMNS = (("customer", "c_address"), ("part", "p_comment"))

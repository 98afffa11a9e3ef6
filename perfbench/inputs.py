"""Seeded inputs of each workload: SQL, arrival schedules and writes.

Everything here is a function of ``(workload, seed, seconds)``.  The program
only ever receives what these functions produce: SQL strings, note strings
and write operations.  Labelled queries (the experts' annotations) are
produced here too, with the benchmark's own :class:`HTAPSystem`, because
they stand for the experts' input to the knowledge base.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.htap.system import HTAPSystem
from repro.service.fingerprint import sql_fingerprint
from repro.workloads.generator import WorkloadGenerator, WorkloadQuery
from repro.workloads.labeling import LabeledQuery, WorkloadLabeler

from perfbench.config import (
    DDL_COLUMNS,
    HOT_SET,
    OPEN_SHARE,
    ZIPF_EXPONENT,
    WorkloadSpec,
)

#: Upper bound on the new (uncached) SQL the closed loop can complete per
#: second, used to size the pool of distinct SQL; every new SQL takes the
#: cold path, whose capacity is well below this.  Running out of distinct
#: SQL fails the run.
CLOSED_NEW_RPS_CEILING = 1500.0

@dataclass(frozen=True)
class Request:
    sql: str


@dataclass(frozen=True)
class Write:
    """One expert or DBA write.

    ``kind`` is ``add`` (``target`` indexes :attr:`Inputs.add_pool`),
    ``correct`` / ``remove`` (``target`` is an entry id; ``text`` is the
    correction), or ``create_index`` / ``drop_index`` (``target`` is the
    table, ``text`` the column).
    """

    kind: str
    target: str
    text: str | None = None


@dataclass(frozen=True)
class Op:
    """One scheduled operation: seconds after the phase start, and what to send."""

    at: float
    request: Request | None = None
    write: Write | None = None


@dataclass
class Inputs:
    spec: WorkloadSpec
    open_ops: list[Op]
    #: Sent one at a time and waited for, before timing starts.
    warmup: list[Request]
    #: Labelled queries whose entries form the knowledge base, or ``None``
    #: for the paper's 20-entry set built with the router.
    kb_source: list[LabeledQuery] | None
    #: Labelled queries whose entries ``add`` writes insert.
    add_pool: list[LabeledQuery]
    #: Every SQL the open loop serves, by fingerprint, for grading.
    queries: dict[str, WorkloadQuery]
    closed_seed: str
    hot: list[str] = field(default_factory=list)
    fresh: list[str] = field(default_factory=list)
    #: Index into ``fresh`` of the first SQL the closed loop may use.
    fresh_used: int = 0

    def closed_requests(self) -> Iterator[Request]:
        """The closed-loop phase's request stream (same mix as the open loop)."""
        rng = random.Random(self.closed_seed)
        fresh = iter(self.fresh[self.fresh_used:])
        zipf = _zipf_sampler(rng, self.hot)
        while True:
            if rng.random() < self.spec.new_share:
                sql = next(fresh, None)
                if sql is None:
                    raise RuntimeError("closed loop ran out of distinct SQL")
            else:
                sql = zipf()
            yield Request(sql)


def _zipf_sampler(rng: random.Random, population: list[str]):
    if not population:
        return lambda: None
    weights = list(itertools.accumulate(1.0 / (k ** ZIPF_EXPONENT) for k in range(1, len(population) + 1)))
    return lambda: rng.choices(population, cum_weights=weights, k=1)[0]


def _distinct(generator: WorkloadGenerator, count: int, seen: set[str]) -> list[WorkloadQuery]:
    out: list[WorkloadQuery] = []
    while len(out) < count:
        query = generator.generate_one()
        fingerprint = sql_fingerprint(query.sql)
        if fingerprint not in seen:
            seen.add(fingerprint)
            out.append(query)
    return out


def _poisson(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Arrival times of a Poisson process at ``rate`` over ``duration``,
    conditioned on its expected count, so every run has the same number of
    requests (and of samples beyond each percentile)."""
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


def build(spec: WorkloadSpec, seed: int, seconds: float) -> Inputs:
    open_seconds = seconds * OPEN_SHARE
    closed_seconds = seconds - open_seconds
    rng = random.Random(f"{spec.name}:{seed}")
    generator = WorkloadGenerator(seed=seed)
    labeler = WorkloadLabeler(HTAPSystem(scale_factor=100.0))
    seen: set[str] = set()

    kb_source = None
    if spec.kb_entries is not None:
        kb_source = labeler.label_many(_distinct(generator, spec.kb_entries, seen))
    writes_expected = int(spec.write_rate * open_seconds) + 1 if spec.write_rate else 0
    add_pool = labeler.label_many(_distinct(generator, writes_expected, seen))

    arrivals = _poisson(rng, spec.rate_rps, open_seconds)
    fresh_needed = int(spec.new_share * len(arrivals) + CLOSED_NEW_RPS_CEILING * closed_seconds) + 10
    hot_queries = _distinct(generator, HOT_SET if spec.new_share < 1.0 else 0, seen)
    fresh_queries = _distinct(generator, fresh_needed, seen)
    hot = [query.sql for query in hot_queries]
    fresh = [query.sql for query in fresh_queries]
    zipf = _zipf_sampler(random.Random(f"{spec.name}:{seed}:zipf"), hot)
    ops: list[Op] = []
    fresh_used = 0
    for at in arrivals:
        if rng.random() < spec.new_share:
            sql = fresh[fresh_used]
            fresh_used += 1
        else:
            sql = zipf()
        ops.append(Op(at, request=Request(sql)))
    queries = {sql_fingerprint(q.sql): q for q in (*hot_queries, *fresh_queries[:fresh_used])}

    kb_ids = (
        [labelled.query_id for labelled in kb_source] if kb_source is not None else []
    )
    if spec.write_rate:
        ops.extend(_write_stream(rng, spec, open_seconds, kb_ids, add_pool))
        ops.sort(key=lambda op: op.at)
    return Inputs(
        spec=spec,
        open_ops=ops,
        warmup=[Request(sql) for sql in hot],
        kb_source=kb_source,
        add_pool=add_pool,
        queries=queries,
        closed_seed=f"{spec.name}:{seed}:closed",
        hot=hot,
        fresh=fresh,
        fresh_used=fresh_used,
    )


def added_entry_id(labelled: LabeledQuery) -> str:
    """Entry id under which an ``add`` write inserts ``labelled``; prefixed so it
    never collides with the ids of the knowledge base built in set-up."""
    return f"w-{labelled.query_id}"


def _correction(entry_id: str, n: int) -> str:
    return f"Expert correction {n} to {entry_id}: re-checked against the latest execution profile."


def _write_stream(
    rng: random.Random,
    spec: WorkloadSpec,
    duration: float,
    kb_ids: list[str],
    add_pool: list[LabeledQuery],
) -> list[Op]:
    """Writes at a fixed rate (random phase) plus two create/drop index pairs."""
    live = list(kb_ids)
    interval = 1.0 / spec.write_rate
    at = rng.uniform(0.0, interval)
    added = 0
    ops: list[Op] = []
    while at < duration:
        choice = rng.random()
        if choice < 0.4 and added < len(add_pool):
            write = Write("add", str(added))
            live.append(added_entry_id(add_pool[added]))
            added += 1
        elif choice < 0.7:
            target = rng.choice(live)
            write = Write("correct", target, _correction(target, len(ops)))
        else:
            target = live.pop(rng.randrange(len(live)))
            write = Write("remove", target)
        ops.append(Op(at, write=write))
        at += interval
    for n, (table, column) in enumerate(DDL_COLUMNS):
        ops.append(Op(duration * (0.2 + 0.4 * n), write=Write("create_index", table, column)))
        ops.append(Op(duration * (0.4 + 0.4 * n), write=Write("drop_index", table, column)))
    return ops

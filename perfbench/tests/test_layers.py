"""The timing wrappers record nested spans and restore every wrapped callable."""

import pytest

from repro.explainer.pipeline import entries_from_labeled
from repro.htap.system import HTAPSystem
from repro.knowledge.knowledge_base import KnowledgeBase
from repro.llm.simulated import SimulatedLLM
from repro.router.router import SmartRouter
from repro.service.server import ExplanationService
from repro.workloads.datasets import build_paper_dataset
from repro.workloads.experts import SimulatedExpert
from repro.workloads.generator import WorkloadGenerator

from perfbench import layers
from perfbench.config import SERVICE_CONFIG
from perfbench.inputs import Request
from perfbench.loadgen import RequestLog
from perfbench.stack import Stack


class Pipeline:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_spans_nest_and_wrappers_are_restored():
    pipeline = Pipeline()
    own = lambda x: x  # noqa: E731 - an instance attribute, not a method
    pipeline.own = own
    log = layers.SpanLog()
    log.wrap(pipeline, "outer", "outer")
    log.wrap(pipeline, "inner", "inner", lambda args, kwargs, result: result)
    log.wrap(pipeline, "own", "own")

    assert pipeline.outer(3) == 7
    assert pipeline.own(5) == 5
    inner, outer, own_span = log.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent is outer and outer.children == [inner]
    assert inner.info == 6
    assert own_span.parent is None
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)

    log.restore()
    assert log.installed == 0
    assert "outer" not in vars(pipeline) and "inner" not in vars(pipeline)
    assert pipeline.outer.__func__ is Pipeline.outer
    assert pipeline.own is own


@pytest.fixture(scope="module")
def stack():
    system = HTAPSystem(scale_factor=100.0)
    dataset = build_paper_dataset(
        system, knowledge_base_size=8, test_size=0, router_training_size=30, seed=2024
    )
    router = SmartRouter(system.catalog, seed=13)
    router.fit(dataset.router_training, epochs=2)
    kb = KnowledgeBase()
    kb.add_many(entries_from_labeled(dataset.knowledge_base, router, SimulatedExpert()))
    llm = SimulatedLLM(seed=7)
    service = ExplanationService(system, router, kb, llm, config=SERVICE_CONFIG)
    built = Stack(system, router, kb, llm, service)
    yield built
    built.close()


def _instance_attributes(stack):
    objects = (
        stack.service, stack.service.cache, stack.service.cache.level().explanations,
        stack.system, stack.system.tp_optimizer, stack.system.ap_optimizer,
        stack.system.simulator, stack.service.batcher, stack.router, stack.kb,
        stack.service.explainer.prompt_builder, stack.llm,
    )
    return [set(vars(obj)) for obj in objects]


def test_traced_run_times_every_layer_and_restores_the_stack(stack):
    before = _instance_attributes(stack)
    log = layers.SpanLog()
    layers.install(log, stack)
    assert log.installed > 0

    requests = RequestLog()
    sqls = [query.sql for query in WorkloadGenerator(seed=99).generate(5)]
    for sql in sqls:
        requests.send(stack.service.submit, Request(sql), due=0.0)
        requests.drain()
    entry = stack.kb.entries()[0]
    stack.kb.correct(entry.entry_id, entry.expert_explanation)
    log.restore()

    assert _instance_attributes(stack) == before
    names = {span.name for span in log.spans}
    assert {
        "service.submit", "service.cache", "htap.parse", "htap.optimize", "htap.execute",
        "batching.encode", "router.embed_batch", "knowledge.retrieve", "knowledge.write",
        "llm.prompt_build", "llm.generate",
    } <= names

    attribution = layers.attribute(log.spans, requests, list(range(len(requests))))
    assert attribution.requests == len(sqls)
    for layer in ("htap.parse", "htap.optimize", "router.embed", "knowledge.retrieve", "llm.generate"):
        assert attribution.layer[layer] > 0, layer
    assert 0.0 <= attribution.residual < attribution.wall
    # Untraced calls record nothing once restored.
    spans = len(log.spans)
    assert stack.service.explain(sqls[0]).ok
    assert len(log.spans) == spans

"""Fixtures for the serving-layer tests.

The session-scoped ``system`` / ``trained_router`` / ``knowledge_base``
fixtures from the top-level conftest are read-only and shared; the service
tests that mutate state (DDL, knowledge writes) build their own small stack
so they cannot poison other tests.
"""

from __future__ import annotations

import pytest

from repro.explainer.pipeline import entries_from_labeled
from repro.htap.system import HTAPSystem
from repro.knowledge.knowledge_base import KnowledgeBase
from repro.llm.simulated import SimulatedLLM
from repro.router.router import SmartRouter
from repro.service import ExplanationService, ServiceConfig
from repro.workloads.experts import SimulatedExpert
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.labeling import WorkloadLabeler


@pytest.fixture()
def service_stack():
    """A private (system, router, kb, llm, workload-sqls) bundle per test."""
    system = HTAPSystem(scale_factor=100.0)
    generator = WorkloadGenerator(seed=21)
    labeler = WorkloadLabeler(system)
    labeled = labeler.label_many(generator.generate(30))
    router = SmartRouter(system.catalog, seed=13)
    router.fit(labeled, epochs=4)
    knowledge_base = KnowledgeBase()
    knowledge_base.add_many(entries_from_labeled(labeled[:12], router, SimulatedExpert()))
    sqls = [item.sql for item in labeled[12:22]]
    return system, router, knowledge_base, SimulatedLLM(seed=7), sqls, labeled


@pytest.fixture()
def service(service_stack):
    system, router, knowledge_base, llm, _sqls, _labeled = service_stack
    svc = ExplanationService(
        system, router, knowledge_base, llm,
        config=ServiceConfig(max_workers=4, max_in_flight=64),
    )
    yield svc
    svc.shutdown()

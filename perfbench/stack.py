"""Set-up: build the serving stack a workload runs against.

A build is what ``setup_s`` times: the HTAP system, router training on the
paper's dataset, the knowledge-base build (embedding and inserting every
labelled entry) and the service start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.explainer.pipeline import RagExplainer, entries_from_labeled
from repro.htap.system import HTAPSystem
from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import KnowledgeBase
from repro.llm.simulated import SimulatedLLM
from repro.router.router import SmartRouter
from repro.service.server import ExplanationService
from repro.workloads.datasets import build_paper_dataset
from repro.workloads.experts import SimulatedExpert
from repro.workloads.labeling import LabeledQuery

from perfbench.config import SERVICE_CONFIG
from perfbench.inputs import added_entry_id


@dataclass
class Stack:
    system: HTAPSystem
    router: SmartRouter
    kb: KnowledgeBase
    llm: SimulatedLLM
    service: ExplanationService

    def inline_explainer(self) -> RagExplainer:
        """The reference explainer over the same system, router, KB and LLM."""
        return RagExplainer(self.system, self.router, self.kb, self.llm, top_k=SERVICE_CONFIG.top_k)

    def entries_for(self, labelled: list[LabeledQuery]) -> list[KnowledgeEntry]:
        """Knowledge entries the ``add`` writes insert (ids from :func:`added_entry_id`)."""
        entries = entries_from_labeled(labelled, self.router, SimulatedExpert())
        for entry, source in zip(entries, labelled):
            entry.entry_id = added_entry_id(source)
        return entries

    def close(self) -> None:
        self.service.shutdown()


def build(kb_source: list[LabeledQuery] | None) -> tuple[Stack, float]:
    """Build one stack; returns it with its build time in seconds."""
    start = time.perf_counter()
    system = HTAPSystem(scale_factor=100.0)
    dataset = build_paper_dataset(
        system, knowledge_base_size=20, test_size=0, router_training_size=240, seed=2024
    )
    router = SmartRouter(system.catalog, seed=13)
    router.fit(dataset.router_training, epochs=30)
    kb = KnowledgeBase()
    labelled = dataset.knowledge_base if kb_source is None else kb_source
    kb.add_many(entries_from_labeled(labelled, router, SimulatedExpert()))
    llm = SimulatedLLM(seed=7)
    service = ExplanationService(system, router, kb, llm, config=SERVICE_CONFIG)
    return Stack(system, router, kb, llm, service), time.perf_counter() - start

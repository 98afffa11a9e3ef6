"""RagExplainer — the end-to-end explanation pipeline (paper Figure 1).

For a new query the pipeline follows the paper's red path:

1. Plan the query on both engines (``EXPLAIN`` from the HTAP system).
2. Encode the plan pair with the smart router into a 16-dim embedding.
3. Retrieve the top-K most similar historical plan pairs from the knowledge
   base.
4. Assemble the Table-I prompt with the retrieved knowledge and the question.
5. Ask the LLM to generate the explanation; return it with the full latency
   breakdown.

Historical queries follow the black path instead: they are labeled, explained
by an expert, and inserted into the knowledge base via
:func:`entries_from_labeled`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.htap.engines.base import EngineKind
from repro.htap.plan.serialize import plan_to_dict
from repro.htap.system import HTAPSystem, PlanPair, QueryExecution
from repro.knowledge.entry import KnowledgeEntry
from repro.knowledge.knowledge_base import (
    DEFAULT_TENANT,
    KnowledgeBase,
    RetrievalResult,
    RetrievedKnowledge,
)
from repro.llm.client import LLMClient, LLMRequest, LLMResponse
from repro.llm.prompts import KnowledgeAttachment, PromptBuilder, PromptPayload, QuestionAttachment
from repro.obs.tracing import get_tracer
from repro.router.router import SmartRouter
from repro.explainer.timing import LatencyProfile
from repro.workloads.experts import SimulatedExpert
from repro.workloads.labeling import LabeledQuery


@dataclass
class Explanation:
    """The pipeline's answer for one query."""

    sql: str
    text: str
    faster_engine: EngineKind | None
    retrieved: list[RetrievedKnowledge]
    prompt: PromptPayload
    response: LLMResponse
    latency: LatencyProfile
    embedding: np.ndarray
    claims: dict[str, Any] = field(default_factory=dict)

    @property
    def is_none_answer(self) -> bool:
        return self.response.is_none_answer

    @property
    def cited_factors(self) -> list[str]:
        return list(self.claims.get("factors", []))


def entries_from_labeled(
    labeled_queries: list[LabeledQuery],
    router: SmartRouter,
    expert: SimulatedExpert | None = None,
) -> list[KnowledgeEntry]:
    """Build knowledge-base entries from expert-annotated historical queries.

    This is the paper's black (historical) path: queries from the router's
    training set are executed on both engines, explained by an expert, and
    stored with their plan-pair embedding as the key.
    """
    expert = expert or SimulatedExpert()
    entries: list[KnowledgeEntry] = []
    for labeled in labeled_queries:
        execution = labeled.execution
        embedding = router.embed_pair(execution.plan_pair)
        entries.append(
            KnowledgeEntry(
                entry_id=labeled.query_id,
                embedding=embedding,
                sql=labeled.sql,
                plan_details={
                    "TP": plan_to_dict(execution.plan_pair.tp_plan),
                    "AP": plan_to_dict(execution.plan_pair.ap_plan),
                },
                faster_engine=execution.faster_engine,
                tp_latency_seconds=execution.tp_result.latency_seconds,
                ap_latency_seconds=execution.ap_result.latency_seconds,
                expert_explanation=expert.explain(labeled),
                factors=tuple(factor.value for factor in labeled.ground_truth.all_factors),
                metadata={"pattern": labeled.workload_query.pattern.value},
            )
        )
    return entries


def execution_result_text(execution: QueryExecution) -> str:
    """The one-line execution summary fed to the prompt for a run query."""
    return (
        f"{execution.faster_engine.value} was faster "
        f"(TP {execution.tp_result.latency_seconds:.3f}s vs "
        f"AP {execution.ap_result.latency_seconds:.3f}s)"
    )


class RagExplainer:
    """Retrieval-augmented explanation generator.

    The pipeline is decomposed into three reusable stages —
    :meth:`encode_stage`, :meth:`retrieve_stage`, :meth:`generate_stage` —
    so callers that already hold an embedding (the serving layer's plan
    cache and micro-batcher) can skip straight to retrieval and generation.
    """

    def __init__(
        self,
        system: HTAPSystem,
        router: SmartRouter,
        knowledge_base: KnowledgeBase,
        llm: LLMClient,
        *,
        prompt_builder: PromptBuilder | None = None,
        top_k: int = 2,
    ):
        if top_k < 0:
            raise ValueError("top_k must be non-negative")
        self.system = system
        self.router = router
        self.knowledge_base = knowledge_base
        self.llm = llm
        self.prompt_builder = prompt_builder or PromptBuilder(
            data_size_gb=system.catalog.database_size_bytes() / 1e9
        )
        self.top_k = top_k

    # ------------------------------------------------------------------ public
    def explain_sql(self, sql: str, *, user_notes: str | None = None) -> Explanation:
        """Explain a query given only its SQL (plans and execution are obtained
        from the HTAP system, as in the paper's deployment)."""
        execution = self.system.run_both(sql)
        return self.explain_execution(execution, user_notes=user_notes)

    def explain_execution(
        self,
        execution: QueryExecution,
        *,
        user_notes: str | None = None,
    ) -> Explanation:
        """Explain an already-executed query (both plans and latencies known)."""
        result_text = execution_result_text(execution)
        return self._explain(
            execution.plan_pair,
            execution_result=result_text,
            faster_engine=execution.faster_engine,
            user_notes=user_notes,
        )

    def explain_plan_pair(
        self,
        plan_pair: PlanPair,
        *,
        execution_result: str | None = None,
        faster_engine: EngineKind | None = None,
        user_notes: str | None = None,
    ) -> Explanation:
        """Explain a plan pair directly (used when execution data is external)."""
        return self._explain(
            plan_pair,
            execution_result=execution_result,
            faster_engine=faster_engine,
            user_notes=user_notes,
        )

    # ------------------------------------------------------------------ stages
    def encode_stage(self, plan_pair: PlanPair) -> tuple[np.ndarray, float]:
        """Stage 1: encode the plan pair; returns (embedding, encode seconds)."""
        with get_tracer().span("pipeline.encode", batched=False):
            return self.router.timed_embed(plan_pair)

    def retrieve_stage(
        self, embedding: np.ndarray, *, tenant: str = DEFAULT_TENANT
    ) -> RetrievalResult:
        """Stage 2: top-K knowledge retrieval for an embedding, in ``tenant``'s
        view of the knowledge base (its own entries plus the shared corpus)."""
        with get_tracer().span("pipeline.retrieve", top_k=self.top_k) as span:
            retrieval = self.knowledge_base.retrieve(embedding, k=self.top_k, tenant=tenant)
            span.set_attribute("hits", len(retrieval.hits))
            return retrieval

    def generate_stage(
        self,
        plan_pair: PlanPair,
        embedding: np.ndarray,
        retrieval: RetrievalResult,
        *,
        encode_seconds: float = 0.0,
        execution_result: str | None = None,
        faster_engine: EngineKind | None = None,
        user_notes: str | None = None,
    ) -> Explanation:
        """Stage 3: assemble the prompt, call the LLM, package the result."""
        with get_tracer().span("pipeline.generate", retrieved=len(retrieval.hits)):
            return self._generate(
                plan_pair,
                embedding,
                retrieval,
                encode_seconds=encode_seconds,
                execution_result=execution_result,
                faster_engine=faster_engine,
                user_notes=user_notes,
            )

    def _generate(
        self,
        plan_pair: PlanPair,
        embedding: np.ndarray,
        retrieval: RetrievalResult,
        *,
        encode_seconds: float,
        execution_result: str | None,
        faster_engine: EngineKind | None,
        user_notes: str | None,
    ) -> Explanation:
        knowledge_attachments = [
            KnowledgeAttachment.from_entry(hit.entry, similarity=hit.similarity)
            for hit in retrieval.hits
        ]
        question = QuestionAttachment(
            sql=plan_pair.query.raw_sql,
            tp_plan=plan_to_dict(plan_pair.tp_plan),
            ap_plan=plan_to_dict(plan_pair.ap_plan),
            execution_result=execution_result,
            faster_engine=faster_engine,
        )
        prompt = self.prompt_builder.build(question, knowledge_attachments, user_notes=user_notes)
        request = LLMRequest(prompt=prompt.text, attachments=prompt.attachments())
        response = self.llm.generate_traced(request)
        latency = LatencyProfile(
            encode_seconds=encode_seconds,
            search_seconds=retrieval.search_seconds,
            llm_thinking_seconds=response.thinking_seconds,
            llm_generation_seconds=response.generation_seconds,
        )
        return Explanation(
            sql=plan_pair.query.raw_sql,
            text=response.text,
            faster_engine=faster_engine,
            retrieved=retrieval.hits,
            prompt=prompt,
            response=response,
            latency=latency,
            embedding=embedding,
            claims=dict(response.claims),
        )

    # --------------------------------------------------------------- internals
    def _explain(
        self,
        plan_pair: PlanPair,
        *,
        execution_result: str | None,
        faster_engine: EngineKind | None,
        user_notes: str | None,
    ) -> Explanation:
        embedding, encode_seconds = self.encode_stage(plan_pair)
        retrieval = self.retrieve_stage(embedding)
        return self.generate_stage(
            plan_pair,
            embedding,
            retrieval,
            encode_seconds=encode_seconds,
            execution_result=execution_result,
            faster_engine=faster_engine,
            user_notes=user_notes,
        )

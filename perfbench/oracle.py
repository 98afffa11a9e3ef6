"""Correctness and quality checks, run outside the timed phases.

* ``compare``: a served answer must equal the inline :class:`RagExplainer`
  answer for the same SQL, in retrieved entry ids (in order),
  prompt text and answer text.  One difference is told apart rather than
  failed: when the served ids differ from the inline ids only among entries
  whose distances to the query tie (within :data:`TIE_TOLERANCE`), and the
  served prompt and answer equal what the inline generator produces from the
  served retrieval, it is a *tie divergence*.  The program has no tie-break
  contract for retrieval, and its batched and single-pair encoders differ in
  the last bits, so exactly tied entries may be picked either way; tie
  divergences are counted and reported, not hidden.
* ``reserve``: after the write stream has stopped, serve a sample again and
  compare it with the inline explainer on the final knowledge base; a stale
  cache entry shows up as a mismatch.
* ``accuracy``: the share of distinct served answers that
  :class:`ExpertPanel` grades accurate against the labelled ground truth.
"""

from __future__ import annotations

from typing import Iterable

from repro.explainer.evaluation import ExpertPanel, Grade
from repro.explainer.pipeline import execution_result_text
from repro.knowledge.knowledge_base import RetrievalResult, RetrievedKnowledge
from repro.service.fingerprint import sql_fingerprint
from repro.workloads.generator import WorkloadQuery
from repro.workloads.labeling import WorkloadLabeler

from perfbench.inputs import Request
from perfbench.loadgen import Answer


#: Distances closer than this are ties.
TIE_TOLERANCE = 1e-9


def _differences(served: Answer, expected) -> list[str]:
    differences = []
    if served.prompt is not None and served.prompt != expected.prompt.text:
        differences.append("prompt text")
    if served.text != expected.text:
        differences.append("answer text")
    return differences


def _tied_retrieval(stack, served: Answer, expected) -> RetrievalResult | None:
    """The served retrieval, if it is a valid top-k for the inline embedding
    up to ties; ``None`` if any served entry is gone or not tied."""
    store = stack.kb.vector_store
    hits = []
    for rank, (entry_id, reference) in enumerate(zip(served.entry_ids, expected.retrieved), start=1):
        if entry_id not in stack.kb:
            return None
        entry = stack.kb.get(entry_id)
        distance = float(store.pairwise_distances(expected.embedding, entry.embedding[None, :])[0])
        if abs(distance - reference.distance) > TIE_TOLERANCE:
            return None
        hits.append(RetrievedKnowledge(entry=entry, distance=distance, rank=rank))
    if len(hits) != len(expected.retrieved):
        return None
    return RetrievalResult(hits=hits, search_seconds=0.0)


def compare(stack, checks: Iterable[tuple[Request, Answer]]) -> tuple[int, int, list[str]]:
    """Check served answers against the inline explainer; returns (answers
    checked, tie divergences, one message per mismatch)."""
    explainer = stack.inline_explainer()
    checked = ties = 0
    mismatches: list[str] = []
    for request, served in checks:
        execution = stack.system.run_both(request.sql)
        expected = explainer.explain_execution(execution)
        checked += 1
        differences = []
        if served.entry_ids == tuple(hit.entry.entry_id for hit in expected.retrieved):
            differences = _differences(served, expected)
        else:
            tied = _tied_retrieval(stack, served, expected)
            if tied is None:
                differences = [f"entry ids {served.entry_ids}"]
            else:
                regenerated = explainer.generate_stage(
                    execution.plan_pair,
                    expected.embedding,
                    tied,
                    execution_result=execution_result_text(execution),
                    faster_engine=execution.faster_engine,
                )
                differences = _differences(served, regenerated)
                ties += not differences
        if differences:
            mismatches.append(f"{request.sql[:60]!r}: {', '.join(differences)}")
    return checked, ties, mismatches


def reserve(stack, requests: Iterable[Request]) -> list[tuple[Request, Answer | None, str | None]]:
    """Serve ``requests`` again, one at a time; returns (request, answer,
    error code) for each."""
    served = []
    for request in requests:
        result = stack.service.explain(request.sql)
        if result.ok:
            served.append((request, Answer.of(result.explanation, keep_prompt=True), None))
        else:
            served.append((request, None, result.error.code.value))
    return served


def accuracy(stack, answers: Iterable[tuple[Request, Answer]], queries: dict[str, WorkloadQuery]) -> float:
    """Share of ``answers`` graded accurate; each is graded against its SQL's
    ground truth, labelled on the stack's HTAP system."""
    labeler = WorkloadLabeler(stack.system)
    panel = ExpertPanel()
    labelled: dict[str, object] = {}
    graded = accurate = 0
    for request, answer in answers:
        fingerprint = sql_fingerprint(request.sql)
        if fingerprint not in labelled:
            labelled[fingerprint] = labeler.label(queries[fingerprint])
        graded += 1
        accurate += panel.grade(labelled[fingerprint], answer).grade is Grade.ACCURATE
    if not graded:
        raise RuntimeError("no answers to grade")
    return accurate / graded

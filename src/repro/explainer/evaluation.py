"""Expert evaluation of generated explanations.

The paper relies on three HTAP experts to judge whether each generated
explanation is "accurate and informative", "less precise", or a ``None``
non-answer.  The reproduction replaces the human panel with a deterministic
grading procedure that compares the explanation's *claims* (which engine is
faster and which causal factors are responsible) against the workload
labeler's ground truth.

Grading works from the structured ``claims`` attached by the simulated LLM
when available, and falls back to keyword matching over the explanation text
otherwise (so hosted models can be graded too, just more coarsely).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.explainer.pipeline import Explanation
from repro.htap.engines.base import EngineKind
from repro.workloads.labeling import ExplanationFactor, GroundTruth, LabeledQuery


class Grade(enum.Enum):
    """Verdict for one explanation."""

    ACCURATE = "accurate"
    IMPRECISE = "imprecise"
    NONE_ANSWER = "none"
    WRONG = "wrong"


@dataclass
class GradedExplanation:
    """One graded explanation with the reasons behind the verdict."""

    query_id: str
    grade: Grade
    cited_factors: list[str]
    expected_primary: str
    winner_correct: bool
    notes: list[str] = field(default_factory=list)


@dataclass
class AccuracyReport:
    """Aggregate grading results over a test set."""

    graded: list[GradedExplanation] = field(default_factory=list)

    def count(self, grade: Grade) -> int:
        return sum(1 for item in self.graded if item.grade is grade)

    @property
    def total(self) -> int:
        return len(self.graded)

    def rate(self, grade: Grade) -> float:
        if not self.graded:
            return 0.0
        return self.count(grade) / self.total

    @property
    def accurate_rate(self) -> float:
        return self.rate(Grade.ACCURATE)

    @property
    def none_rate(self) -> float:
        return self.rate(Grade.NONE_ANSWER)

    @property
    def imprecise_rate(self) -> float:
        return self.rate(Grade.IMPRECISE)

    @property
    def wrong_rate(self) -> float:
        return self.rate(Grade.WRONG)

    @property
    def less_precise_rate(self) -> float:
        """The paper's "remaining 9 %" bucket: everything not fully accurate."""
        return 1.0 - self.accurate_rate if self.graded else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "total": float(self.total),
            "accurate": self.accurate_rate,
            "imprecise": self.imprecise_rate,
            "none": self.none_rate,
            "wrong": self.wrong_rate,
        }


#: Keywords used by the text-only fallback grader, per factor.
_FACTOR_KEYWORDS = {
    ExplanationFactor.HASH_JOIN_VS_NESTED_LOOP: ("hash join", "nested loop"),
    ExplanationFactor.NO_USABLE_INDEX: ("no usable index", "no index"),
    ExplanationFactor.INDEX_DEFEATED_BY_FUNCTION: ("substring", "function"),
    ExplanationFactor.COLUMNAR_PARALLEL_SCAN: ("column", "columnar"),
    ExplanationFactor.AGGREGATION_EFFICIENCY: ("aggregat",),
    ExplanationFactor.FULL_SORT_REQUIRED: ("sort",),
    ExplanationFactor.LARGE_OFFSET_PENALTY: ("offset",),
    ExplanationFactor.SELECTIVE_INDEX_ACCESS: ("index lookup", "selective"),
    ExplanationFactor.INDEX_PROVIDES_ORDER: ("index", "order"),
    ExplanationFactor.SMALL_QUERY_OVERHEAD: ("overhead", "start-up", "startup"),
    ExplanationFactor.SMALL_DATA_VOLUME: ("tiny", "small"),
}


class ExpertPanel:
    """Deterministic stand-in for the paper's three-expert grading panel."""

    def __init__(self, panel_size: int = 3):
        if panel_size < 1:
            raise ValueError("panel_size must be at least 1")
        self.panel_size = panel_size

    # ------------------------------------------------------------------ grade
    def grade(self, labeled: LabeledQuery, explanation: Explanation) -> GradedExplanation:
        """Grade one explanation against its ground truth.

        Only ``text``, ``claims``, ``is_none_answer``, ``cited_factors`` and
        ``faster_engine`` are read, so baseline answers are graded as they are.
        """
        ground_truth = labeled.ground_truth
        if explanation.is_none_answer:
            return GradedExplanation(
                query_id=labeled.query_id,
                grade=Grade.NONE_ANSWER,
                cited_factors=[],
                expected_primary=ground_truth.primary_factor.value,
                winner_correct=False,
                notes=["model returned None"],
            )
        cited = explanation.cited_factors or self._factors_from_text(explanation.text, ground_truth)
        claimed_winner = explanation.claims.get("winner")
        if claimed_winner is None and explanation.faster_engine is not None:
            claimed_winner = explanation.faster_engine.value
        winner_correct = claimed_winner == ground_truth.faster_engine.value

        notes: list[str] = []
        if explanation.claims.get("used_cost_comparison"):
            notes.append("compared cost estimates across engines")
        inconsistent = [
            factor
            for factor in cited
            if self._favours(factor) is not None
            and self._favours(factor) is not ground_truth.faster_engine
        ]
        if inconsistent:
            notes.append(f"cited factors favouring the slower engine: {inconsistent}")
        if explanation.claims.get("index_misread"):
            notes.append("claimed index benefits despite a function-wrapped predicate")
            if ground_truth.primary_factor in (
                ExplanationFactor.INDEX_DEFEATED_BY_FUNCTION,
                ExplanationFactor.HASH_JOIN_VS_NESTED_LOOP,
                ExplanationFactor.NO_USABLE_INDEX,
            ):
                inconsistent.append("index_misread")

        grade = self._decide(ground_truth, cited, winner_correct, bool(inconsistent))
        return GradedExplanation(
            query_id=labeled.query_id,
            grade=grade,
            cited_factors=list(cited),
            expected_primary=ground_truth.primary_factor.value,
            winner_correct=winner_correct,
            notes=notes,
        )

    def evaluate(
        self, labeled_queries: list[LabeledQuery], explanations: list[Explanation]
    ) -> AccuracyReport:
        """Grade a whole test set (labeled queries and explanations aligned)."""
        if len(labeled_queries) != len(explanations):
            raise ValueError("labeled_queries and explanations must have equal length")
        report = AccuracyReport()
        for labeled, explanation in zip(labeled_queries, explanations):
            report.graded.append(self.grade(labeled, explanation))
        return report

    # --------------------------------------------------------------- internals
    @staticmethod
    def _decide(
        ground_truth: GroundTruth,
        cited: list[str],
        winner_correct: bool,
        has_inconsistency: bool,
    ) -> Grade:
        if not winner_correct or (has_inconsistency and not cited):
            return Grade.WRONG
        truth_values = ground_truth.factor_values()
        primary = ground_truth.primary_factor.value
        cited_set = set(cited)
        if has_inconsistency:
            return Grade.WRONG if primary not in cited_set else Grade.IMPRECISE
        if not cited_set:
            return Grade.IMPRECISE
        if primary in cited_set and cited_set <= truth_values:
            return Grade.ACCURATE
        if primary in cited_set:
            # Primary named but with extra, weaker claims.
            return Grade.ACCURATE if cited[0] == primary else Grade.IMPRECISE
        if cited_set & truth_values:
            return Grade.IMPRECISE
        return Grade.WRONG

    @staticmethod
    def _favours(factor_value: str) -> EngineKind | None:
        try:
            return ExplanationFactor(factor_value).favours
        except ValueError:
            return None

    @staticmethod
    def _factors_from_text(text: str, ground_truth: GroundTruth) -> list[str]:
        """Keyword fallback when structured claims are unavailable."""
        lowered = text.lower()
        found: list[str] = []
        for factor, keywords in _FACTOR_KEYWORDS.items():
            if any(keyword in lowered for keyword in keywords):
                found.append(factor.value)
        return found

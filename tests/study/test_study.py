"""Tests for the simulated participant study."""

import random

import pytest

from repro.htap.plan.serialize import plan_to_dict
from repro.study.participants import Participant, ParticipantPool
from repro.study.protocol import ParticipantStudy, StudyMaterials


@pytest.fixture(scope="module")
def materials(system, example1_sql, rag_explainer):
    pair = system.explain_pair(example1_sql)
    explanation = rag_explainer.explain_sql(example1_sql)
    return StudyMaterials.from_dicts(
        sql=example1_sql,
        tp_plan=plan_to_dict(pair.tp_plan),
        ap_plan=plan_to_dict(pair.ap_plan),
        explanation_text=explanation.text,
    )


def test_materials_sizes(materials):
    assert materials.plan_chars > 500
    assert materials.explanation_words > 20


def test_participant_times_scale_with_artifact_size():
    participant = Participant("p1", expertise=0.5, reading_speed_factor=1.0)
    assert participant.plan_reading_minutes(4000) > participant.plan_reading_minutes(1000)
    assert participant.explanation_reading_minutes(300) > participant.explanation_reading_minutes(100)
    assert participant.assisted_total_minutes(3000, 150) < participant.plan_reading_minutes(3000)


def test_expert_participants_are_faster_and_more_accurate():
    novice = Participant("novice", expertise=0.05, reading_speed_factor=1.0)
    expert = Participant("expert", expertise=0.95, reading_speed_factor=1.0)
    assert expert.plan_reading_minutes(4000) < novice.plan_reading_minutes(4000)
    rng = random.Random(1)
    novice_correct = sum(novice.understands_from_plans(random.Random(i)) for i in range(200))
    expert_correct = sum(expert.understands_from_plans(random.Random(i)) for i in range(200))
    assert expert_correct > novice_correct
    assert expert.plan_difficulty_rating(rng) < novice.plan_difficulty_rating(rng) + 1.0


def test_difficulty_ratings_bounded():
    rng = random.Random(0)
    for expertise in (0.0, 0.5, 1.0):
        participant = Participant("p", expertise=expertise, reading_speed_factor=1.0)
        for _draw in range(20):
            assert 0.0 <= participant.plan_difficulty_rating(rng) <= 10.0
            assert 0.0 <= participant.explanation_difficulty_rating(rng) <= 10.0


def test_pool_is_deterministic_and_splits_evenly():
    pool = ParticipantPool(size=24, seed=5)
    assert [p.participant_id for p in pool.participants()] == [p.participant_id for p in pool.participants()]
    group_a, group_b = pool.split_groups()
    assert len(group_a) == len(group_b) == 12
    with pytest.raises(ValueError):
        ParticipantPool(size=1)


def test_study_reproduces_paper_directionality(materials):
    report = ParticipantStudy(materials, pool=ParticipantPool(size=24), seed=99).run()
    with_llm = report.with_llm
    without_llm = report.without_llm
    # Time: the LLM group understands substantially faster (paper: 3.5 vs 8.2 min).
    assert with_llm.average_minutes < 0.6 * without_llm.average_minutes
    assert 2.0 < with_llm.average_minutes < 6.0
    assert 5.0 < without_llm.average_minutes < 12.0
    # Correctness: all LLM-group participants identify the right reason.
    assert with_llm.correct_fraction == pytest.approx(1.0)
    assert 0.4 <= without_llm.correct_fraction <= 0.8
    # Everyone who was wrong corrects themselves after reading the explanation.
    assert without_llm.corrected_fraction == pytest.approx(1.0)
    # Difficulty: plan details ≈ 8.5, explanation ≈ 3.
    assert 7.5 <= without_llm.average_plan_difficulty <= 9.5
    assert 2.0 <= without_llm.average_explanation_difficulty <= 4.0


def test_study_report_rows_shape(materials):
    report = ParticipantStudy(materials).run()
    rows = report.as_rows()
    assert [row["group"] for row in rows] == ["without_llm", "with_llm"]
    assert all({"avg_minutes", "correct_fraction", "plan_difficulty"} <= set(row) for row in rows)


def test_study_deterministic_given_seed(materials):
    first = ParticipantStudy(materials, seed=7).run()
    second = ParticipantStudy(materials, seed=7).run()
    assert first.without_llm.average_minutes == second.without_llm.average_minutes
    assert first.with_llm.correct_fraction == second.with_llm.correct_fraction

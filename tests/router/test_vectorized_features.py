"""Equivalence and memoization tests for the vectorized featurization path.

The batched :meth:`PlanFeaturizer.features_for_nodes` must be numerically
interchangeable with the scalar :meth:`PlanFeaturizer.node_features`
reference on every plan the workload generator can produce — not just
hand-built trees — because the router's embeddings (and hence the KB's
retrieval geometry) are defined by the scalar semantics.
"""

import numpy as np
import pytest

from repro.htap.catalog import Catalog
from repro.htap.plan.nodes import NodeType, PlanNode
from repro.router.features import PlanFeaturizer
from repro.router.tensors import PlanTensor


def _workload_plans(labeled_workload) -> list[PlanNode]:
    plans: list[PlanNode] = []
    for labeled in labeled_workload:
        pair = labeled.execution.plan_pair
        plans.extend([pair.tp_plan, pair.ap_plan])
    return plans


# ------------------------------------------------------------- equivalence
def test_batched_features_match_scalar_on_every_workload_plan(catalog, labeled_workload):
    featurizer = PlanFeaturizer(catalog)
    plans = _workload_plans(labeled_workload)
    assert plans  # the fixture labels a 60-query workload
    for plan in plans:
        nodes = list(plan.walk())
        batched = featurizer.features_for_nodes(nodes)
        scalar = np.stack([featurizer.node_features(node) for node in nodes])
        np.testing.assert_allclose(batched, scalar, rtol=0.0, atol=1e-12)


def test_batched_features_match_scalar_without_catalog(labeled_workload):
    featurizer = PlanFeaturizer(None)
    for plan in _workload_plans(labeled_workload)[:10]:
        nodes = list(plan.walk())
        batched = featurizer.features_for_nodes(nodes)
        scalar = np.stack([featurizer.node_features(node) for node in nodes])
        np.testing.assert_allclose(batched, scalar, rtol=0.0, atol=1e-12)


def test_features_for_nodes_empty_input(catalog):
    featurizer = PlanFeaturizer(catalog)
    matrix = featurizer.features_for_nodes([])
    assert matrix.shape == (0, featurizer.feature_size)


def test_from_plans_matches_from_plan(catalog, labeled_workload):
    featurizer = PlanFeaturizer(catalog)
    plans = _workload_plans(labeled_workload)[:24]
    batched = PlanTensor.from_plans(plans, featurizer)
    assert len(batched) == len(plans)
    for plan, tensor in zip(plans, batched):
        single = PlanTensor.from_plan(plan, featurizer)
        np.testing.assert_array_equal(tensor.features, single.features)
        np.testing.assert_array_equal(tensor.left, single.left)
        np.testing.assert_array_equal(tensor.right, single.right)


def test_from_plans_empty():
    assert PlanTensor.from_plans([], PlanFeaturizer(None)) == []


# -------------------------------------------------------------- memoization
class _CountingCatalog:
    """Catalog facade that counts lookups the featurizer performs."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self.row_count_calls = 0
        self.has_table_calls = 0

    def has_table(self, name: str) -> bool:
        self.has_table_calls += 1
        return self._catalog.has_table(name)

    def row_count(self, name: str) -> int:
        self.row_count_calls += 1
        return self._catalog.row_count(name)


def _scan(relation: str) -> PlanNode:
    return PlanNode(NodeType.TABLE_SCAN, total_cost=5.0, plan_rows=100.0, relation=relation)


def test_row_count_memoized_per_relation(catalog):
    counting = _CountingCatalog(catalog)
    featurizer = PlanFeaturizer(counting)
    nodes = [_scan("orders"), _scan("customer"), _scan("orders"), _scan("orders")]
    featurizer.features_for_nodes(nodes)
    assert counting.row_count_calls == 2  # one per distinct relation
    featurizer.features_for_nodes(nodes)
    featurizer.node_features(nodes[0])
    assert counting.row_count_calls == 2  # later passes hit the memo


def test_row_count_memo_cleared_on_invalidate(catalog):
    counting = _CountingCatalog(catalog)
    featurizer = PlanFeaturizer(counting)
    featurizer.features_for_nodes([_scan("orders")])
    assert counting.row_count_calls == 1
    featurizer.invalidate_catalog_cache()
    featurizer.features_for_nodes([_scan("orders")])
    assert counting.row_count_calls == 2


def test_unknown_relation_memoized_and_falls_back_to_plan_rows(catalog):
    counting = _CountingCatalog(catalog)
    featurizer = PlanFeaturizer(counting)
    stranger = PlanNode(
        NodeType.TABLE_SCAN, total_cost=1.0, plan_rows=42.0, relation="no_such_table"
    )
    first = featurizer.node_features(stranger)
    second = featurizer.node_features(stranger)
    np.testing.assert_array_equal(first, second)
    assert counting.row_count_calls == 0  # never resolved through the catalog
    assert counting.has_table_calls == 1  # the miss itself is memoized
    assert first[-1] == pytest.approx(np.log1p(42.0) / 22.0)


def test_service_ddl_clears_featurizer_memo(catalog):
    """The DDL listener hook must reach the featurizer's row-count memo."""
    from repro.htap.system import HTAPSystem
    from repro.router.router import SmartRouter

    system = HTAPSystem(scale_factor=100.0)
    router = SmartRouter(system.catalog, seed=13)
    router.featurizer._row_count_cache["orders"] = 123.0
    from repro.knowledge.knowledge_base import KnowledgeBase
    from repro.llm.simulated import SimulatedLLM
    from repro.service import ExplanationService, ServiceConfig

    service = ExplanationService(
        system, router, KnowledgeBase(), SimulatedLLM(seed=7),
        config=ServiceConfig(max_workers=1),
    )
    try:
        assert router.featurizer._row_count_cache
        service.create_index("orders", "o_custkey")
        assert router.featurizer._row_count_cache == {}
    finally:
        service.shutdown()

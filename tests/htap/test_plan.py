"""Tests for plan nodes, serialization, derived properties, and diffing."""

from repro.htap.plan.diff import diff_plans
from repro.htap.plan.nodes import NodeType, PlanNode
from repro.htap.plan.properties import analyze_plan
from repro.htap.plan.serialize import plan_to_dict


def _small_tp_plan() -> PlanNode:
    scan_nation = PlanNode(NodeType.TABLE_SCAN, total_cost=2.75, plan_rows=25, relation="nation")
    filter_nation = PlanNode(
        NodeType.FILTER, total_cost=2.75, plan_rows=2, predicate="n_name = 'egypt'", children=[scan_nation]
    )
    scan_customer = PlanNode(NodeType.TABLE_SCAN, total_cost=290.0, plan_rows=1142, relation="customer")
    filter_customer = PlanNode(
        NodeType.FILTER, total_cost=290.0, plan_rows=114, predicate="c_mktsegment = 'machinery'",
        children=[scan_customer],
    )
    join = PlanNode(
        NodeType.NESTED_LOOP_JOIN, total_cost=1002.0, plan_rows=285, children=[filter_nation, filter_customer]
    )
    return PlanNode(NodeType.GROUP_AGGREGATE, total_cost=5213.0, plan_rows=1, children=[join])


def _small_ap_plan() -> PlanNode:
    scan = PlanNode(
        NodeType.TABLE_SCAN,
        total_cost=0.5,
        plan_rows=135_000_000,
        relation="orders",
        output_columns=("o_custkey", "o_orderstatus"),
        extra={"Storage": "column-oriented"},
    )
    filtered = PlanNode(NodeType.FILTER, total_cost=13.5e6, plan_rows=13_500_000, children=[scan])
    hash_node = PlanNode(NodeType.HASH, total_cost=3.0, plan_rows=2, children=[
        PlanNode(NodeType.TABLE_SCAN, total_cost=0.5, plan_rows=25, relation="nation")
    ])
    join = PlanNode(NodeType.HASH_JOIN, total_cost=16.5e6, plan_rows=134_933, children=[filtered, hash_node])
    return PlanNode(NodeType.AGGREGATE, total_cost=16.5e6, plan_rows=1, children=[join])


# ------------------------------------------------------------------- nodes
def test_walk_is_preorder_and_counts():
    plan = _small_tp_plan()
    node_types = [node.node_type for node in plan.walk()]
    assert node_types[0] == NodeType.GROUP_AGGREGATE
    assert plan.node_count() == 6
    assert plan.depth() == 4


def test_scanned_tables_and_joins():
    plan = _small_tp_plan()
    assert plan.scanned_tables() == ["nation", "customer"]
    assert len(plan.join_nodes()) == 1
    assert len(plan.aggregate_nodes()) == 1
    assert not plan.uses_index()


def test_structural_signature_ignores_costs():
    first = _small_tp_plan()
    second = _small_tp_plan()
    for node in second.walk():
        node.total_cost *= 10
    assert first.structural_signature() == second.structural_signature()


def test_pretty_output_contains_node_names():
    text = _small_tp_plan().pretty()
    assert "Group aggregate" in text
    assert "Nested loop inner join" in text
    assert "Table Scan on customer" in text


# --------------------------------------------------------------- serialize
def test_plan_to_dict_matches_paper_format():
    data = plan_to_dict(_small_tp_plan())
    assert data["Node Type"] == "Group aggregate"
    assert data["Total Cost"] == 5213.0
    assert data["Plan Rows"] == 1
    child = data["Plans"][0]
    assert child["Node Type"] == "Nested loop inner join"
    leaf = child["Plans"][0]["Plans"][0]
    assert leaf["Relation Name"] == "nation"
    orders_scan = plan_to_dict(_small_ap_plan())["Plans"][0]["Plans"][0]["Plans"][0]
    assert orders_scan["Relation Name"] == "orders"
    assert orders_scan["Output"] == ["o_custkey", "o_orderstatus"]
    assert orders_scan["Storage"] == "column-oriented"


# -------------------------------------------------------------- properties
def test_analyze_plan_extracts_join_and_scan_info():
    properties = analyze_plan(_small_tp_plan())
    assert properties.join_count == 1
    assert properties.uses_nested_loop
    assert not properties.uses_hash_join
    assert properties.scanned_tables == ["nation", "customer"]
    assert properties.largest_scan_rows == 1142
    assert properties.dominant_join_method == "Nested loop inner join"


def test_analyze_plan_ap_side():
    properties = analyze_plan(_small_ap_plan())
    assert properties.uses_hash_join
    assert properties.storage_format == "column-oriented"
    assert properties.aggregate_methods == ["Aggregate"]


# -------------------------------------------------------------------- diff
def test_diff_detects_join_strategy_difference():
    diff = diff_plans(_small_tp_plan(), _small_ap_plan())
    assert diff.join_strategy_differs
    assert "Nested loop inner join" in diff.tp_join_methods
    assert "Inner hash join" in diff.ap_join_methods
    assert diff.cost_ratio > 100  # AP cost is numerically much larger
    lines = diff.summary_lines()
    assert any("Join strategies differ" in line for line in lines)
    assert any("different cost units" in line for line in lines)


def test_diff_scan_differences_cover_all_tables():
    diff = diff_plans(_small_tp_plan(), _small_ap_plan())
    tables = {difference.table for difference in diff.scan_differences}
    assert tables == {"nation", "customer", "orders"}
    orders_diff = next(d for d in diff.scan_differences if d.table == "orders")
    assert orders_diff.tp_access is None
    assert orders_diff.ap_access == "Table Scan"
    assert orders_diff.differs

"""Serialisation of plan trees to the EXPLAIN dictionary format of the paper.

Table II of the paper shows plans as nested dictionaries with the keys
``'Node Type'``, ``'Total Cost'``, ``'Plan Rows'``, ``'Relation Name'`` and
``'Plans'``.  This module renders :class:`~repro.htap.plan.nodes.PlanNode`
trees in that format, so that the prompt text, the knowledge base's stored
plan pairs, and the benchmark that regenerates Table II all use the exact
same representation.  Nothing parses the format back into plans: code that
reasons about a plan reads the :class:`PlanNode` tree itself.
"""

from __future__ import annotations

from typing import Any

from repro.htap.plan.nodes import PlanNode


def plan_to_dict(plan: PlanNode, *, include_extra: bool = True) -> dict[str, Any]:
    """Convert a plan tree to the paper's EXPLAIN dictionary format."""
    node: dict[str, Any] = {
        "Node Type": plan.node_type.value,
        "Total Cost": round(float(plan.total_cost), 2),
        "Plan Rows": int(round(plan.plan_rows)),
    }
    if plan.relation is not None:
        node["Relation Name"] = plan.relation
    if plan.index_name is not None:
        node["Index Name"] = plan.index_name
    if plan.predicate is not None:
        node["Filter"] = plan.predicate
    if plan.output_columns:
        node["Output"] = list(plan.output_columns)
    if include_extra and plan.extra:
        node.update(plan.extra)
    if plan.children:
        node["Plans"] = [plan_to_dict(child, include_extra=include_extra) for child in plan.children]
    return node

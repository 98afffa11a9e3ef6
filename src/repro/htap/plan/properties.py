"""Derived plan properties.

The explainer, the simulated LLM, and the expert simulator all reason about
plans in terms of a small set of performance-relevant properties: which join
methods appear, whether indexes are used, how much data is scanned, whether
the plan sorts or limits, and so on.  Centralising this analysis keeps the
three components consistent and gives tests a single surface to verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htap.plan.nodes import (
    AGGREGATE_NODE_TYPES,
    JOIN_NODE_TYPES,
    NodeType,
    PlanNode,
)


@dataclass
class PlanProperties:
    """Summary of performance-relevant features of one plan."""

    join_methods: list[str] = field(default_factory=list)
    join_count: int = 0
    uses_index: bool = False
    index_names: list[str] = field(default_factory=list)
    scanned_tables: list[str] = field(default_factory=list)
    largest_scan_rows: float = 0.0
    total_scanned_rows: float = 0.0
    aggregate_methods: list[str] = field(default_factory=list)
    has_sort: bool = False
    has_top_n: bool = False
    has_limit: bool = False
    node_count: int = 0
    depth: int = 0
    estimated_output_rows: float = 0.0
    storage_format: str = "unknown"

    @property
    def dominant_join_method(self) -> str | None:
        """The most frequent join method in the plan (None if no joins)."""
        if not self.join_methods:
            return None
        counts: dict[str, int] = {}
        for method in self.join_methods:
            counts[method] = counts.get(method, 0) + 1
        return max(counts, key=lambda method: (counts[method], method))

    @property
    def uses_nested_loop(self) -> bool:
        return any("Nested loop" in method or "Index nested" in method for method in self.join_methods)

    @property
    def uses_hash_join(self) -> bool:
        return any("hash join" in method.lower() for method in self.join_methods)

    def as_dict(self) -> dict:
        """Plain-dict form, convenient for prompts and JSON storage."""
        return {
            "join_methods": list(self.join_methods),
            "join_count": self.join_count,
            "uses_index": self.uses_index,
            "index_names": list(self.index_names),
            "scanned_tables": list(self.scanned_tables),
            "largest_scan_rows": self.largest_scan_rows,
            "total_scanned_rows": self.total_scanned_rows,
            "aggregate_methods": list(self.aggregate_methods),
            "has_sort": self.has_sort,
            "has_top_n": self.has_top_n,
            "has_limit": self.has_limit,
            "node_count": self.node_count,
            "depth": self.depth,
            "estimated_output_rows": self.estimated_output_rows,
            "storage_format": self.storage_format,
        }


def analyze_plan(plan: PlanNode) -> PlanProperties:
    """Compute :class:`PlanProperties` for a plan tree."""
    properties = PlanProperties()
    properties.node_count = plan.node_count()
    properties.depth = plan.depth()
    properties.estimated_output_rows = plan.plan_rows
    properties.storage_format = plan.extra.get("Storage", "unknown")
    for node in plan.walk():
        if node.node_type in JOIN_NODE_TYPES:
            properties.join_methods.append(node.node_type.value)
            properties.join_count += 1
        if node.node_type in AGGREGATE_NODE_TYPES:
            properties.aggregate_methods.append(node.node_type.value)
        if node.node_type in (NodeType.SORT, NodeType.TOP_N_SORT):
            properties.has_sort = True
        if node.node_type == NodeType.TOP_N_SORT:
            properties.has_top_n = True
        if node.node_type == NodeType.LIMIT:
            properties.has_limit = True
        if node.index_name is not None:
            properties.uses_index = True
            properties.index_names.append(node.index_name)
        if node.node_type in (NodeType.INDEX_SCAN, NodeType.INDEX_LOOKUP, NodeType.INDEX_NESTED_LOOP_JOIN):
            properties.uses_index = True
        if node.node_type in (NodeType.TABLE_SCAN, NodeType.INDEX_SCAN, NodeType.INDEX_LOOKUP):
            if node.relation is not None:
                properties.scanned_tables.append(node.relation)
            properties.largest_scan_rows = max(properties.largest_scan_rows, node.plan_rows)
            properties.total_scanned_rows += node.plan_rows
        if "Storage" in node.extra and properties.storage_format == "unknown":
            properties.storage_format = node.extra["Storage"]
    return properties

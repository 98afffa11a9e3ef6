"""Cost models for the two optimizers.

A central point of the paper is that **cost estimates are not comparable
across engines**: the TP optimizer costs plans in page-fetch units
(PostgreSQL-style), while the AP optimizer costs plans in a throughput-based
unit that ends up numerically orders of magnitude larger (compare the paper's
Table II: TP total cost 5213 vs AP total cost 16,500,000 even though AP is
~19x faster).  Keeping two deliberately different cost models reproduces that
property, which in turn is what trips up the DBG-PT baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.htap.catalog import Catalog, Index
from repro.htap.storage.column_store import ColumnStoreModel
from repro.htap.storage.row_store import RowStoreModel


@dataclass(frozen=True)
class TPCostParameters:
    """PostgreSQL-style cost constants for the row engine.

    The absolute scale is deliberately small: the TP optimizer reports totals
    in the thousands while the AP optimizer reports totals in the millions
    (see the paper's Table II), so naively comparing the two numbers points
    the wrong way — exactly the trap the paper warns the LLM about.
    """

    seq_page_cost: float = 0.001
    random_page_cost: float = 0.004
    cpu_tuple_cost: float = 1e-5
    cpu_index_tuple_cost: float = 5e-6
    cpu_operator_cost: float = 2.5e-6


@dataclass(frozen=True)
class APCostParameters:
    """Throughput-style cost constants for the column engine.

    The unit is "abstract work"; the absolute scale is intentionally very
    different from the TP unit.
    """

    bytes_cost: float = 1e-6
    row_cost: float = 0.1
    hash_build_row_cost: float = 0.25
    hash_probe_row_cost: float = 0.12
    aggregate_row_cost: float = 0.15
    sort_row_cost: float = 0.2


class TPCostModel:
    """Costing primitives used by the TP optimizer."""

    def __init__(self, catalog: Catalog, row_model: RowStoreModel, parameters: TPCostParameters | None = None):
        self.catalog = catalog
        self.row_model = row_model
        self.parameters = parameters or TPCostParameters()

    def sequential_scan_cost(self, table_name: str) -> float:
        """Full heap scan: sequential pages plus per-tuple CPU."""
        stats = self.row_model.table_stats(table_name)
        return (
            stats.page_count * self.parameters.seq_page_cost
            + stats.row_count * self.parameters.cpu_tuple_cost
        )

    def index_scan_cost(self, index: Index, matching_rows: float) -> float:
        """Index descent plus heap fetches for ``matching_rows`` matches."""
        pages = self.row_model.index_lookup_pages(index, matching_rows)
        return (
            pages * self.parameters.random_page_cost
            + matching_rows * self.parameters.cpu_index_tuple_cost
        )

    def filter_cost(self, input_rows: float, predicate_count: int = 1) -> float:
        return input_rows * self.parameters.cpu_operator_cost * max(1, predicate_count)

    def nested_loop_join_cost(self, outer_rows: float, inner_cost: float, inner_rows: float) -> float:
        """Nested-loop join: the inner is materialised once, then probed.

        The probe term models a per-(outer, candidate) comparison against the
        materialised inner relation.
        """
        probe = outer_rows * inner_rows * self.parameters.cpu_operator_cost * 0.001
        return inner_cost + probe + outer_rows * self.parameters.cpu_tuple_cost

    def index_nested_loop_join_cost(self, outer_rows: float, index: Index, matches_per_probe: float) -> float:
        """Index nested-loop join: one index lookup per outer row."""
        per_probe = self.index_scan_cost(index, max(1.0, matches_per_probe))
        return outer_rows * per_probe * 0.25 + outer_rows * self.parameters.cpu_tuple_cost

    def sort_cost(self, input_rows: float) -> float:
        import math

        if input_rows <= 1:
            return self.parameters.cpu_operator_cost
        return input_rows * math.log2(input_rows) * self.parameters.cpu_operator_cost * 2.0

    def aggregate_cost(self, input_rows: float, group_count: float) -> float:
        return input_rows * self.parameters.cpu_operator_cost * 4.0 + group_count * self.parameters.cpu_tuple_cost


class APCostModel:
    """Costing primitives used by the AP optimizer."""

    def __init__(
        self,
        catalog: Catalog,
        column_model: ColumnStoreModel,
        parameters: APCostParameters | None = None,
    ):
        self.catalog = catalog
        self.column_model = column_model
        self.parameters = parameters or APCostParameters()

    def column_scan_cost(self, table_name: str, columns: list[str], output_rows: float) -> float:
        """Columnar scan: compressed bytes read plus per-row decode work."""
        scanned_bytes = self.column_model.scan_bytes(table_name, columns or None)
        row_count = self.catalog.row_count(table_name)
        return (
            scanned_bytes * self.parameters.bytes_cost
            + row_count * self.parameters.row_cost
            + output_rows * self.parameters.row_cost * 0.1
        )

    def filter_cost(self, input_rows: float) -> float:
        return input_rows * self.parameters.row_cost * 0.2

    def hash_join_cost(self, build_rows: float, probe_rows: float) -> float:
        return (
            build_rows * self.parameters.hash_build_row_cost
            + probe_rows * self.parameters.hash_probe_row_cost
        )

    def aggregate_cost(self, input_rows: float, group_count: float) -> float:
        return input_rows * self.parameters.aggregate_row_cost + group_count * self.parameters.row_cost

    def top_n_sort_cost(self, input_rows: float, limit: int) -> float:
        import math

        heap = max(2.0, float(limit))
        return input_rows * math.log2(heap) * self.parameters.sort_row_cost * 0.25

    def sort_cost(self, input_rows: float) -> float:
        import math

        if input_rows <= 1:
            return self.parameters.sort_row_cost
        return input_rows * math.log2(input_rows) * self.parameters.sort_row_cost

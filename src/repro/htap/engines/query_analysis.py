"""Logical query analysis shared by both optimizers.

Both the TP and AP optimizers start from the same decomposition of a parsed
query:

* which base tables it touches,
* the single-table filter attached to each table,
* the equi-join predicates connecting tables (the join graph),
* which columns each table must produce,
* the aggregation / ordering / limit structure.

Keeping this analysis engine-agnostic mirrors the HTAP architecture of the
paper (one SQL front end, two physical planners) and avoids duplicating the
predicate classification logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htap.catalog import Catalog
from repro.htap.sql import ast
from repro.htap.statistics import PredicateEstimate, StatisticsCatalog


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join predicate between two tables."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def involves(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def other_side(self, table: str) -> tuple[str, str]:
        """Return ``(table, column)`` of the side that is *not* ``table``."""
        if table == self.left_table:
            return self.right_table, self.right_column
        if table == self.right_table:
            return self.left_table, self.left_column
        raise ValueError(f"table {table!r} is not part of this join edge")

    def column_for(self, table: str) -> str:
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise ValueError(f"table {table!r} is not part of this join edge")

    def describe(self) -> str:
        return f"{self.left_table}.{self.left_column} = {self.right_table}.{self.right_column}"


@dataclass
class TableAccessInfo:
    """Per-table information derived from the WHERE clause."""

    table: str
    base_rows: int
    filters: list[ast.Expression] = field(default_factory=list)
    filter_estimates: list[PredicateEstimate] = field(default_factory=list)
    required_columns: set[str] = field(default_factory=set)

    @property
    def combined_selectivity(self) -> float:
        selectivity = 1.0
        for estimate in self.filter_estimates:
            selectivity *= estimate.selectivity
        return selectivity

    @property
    def filtered_rows(self) -> float:
        return max(1.0, self.base_rows * self.combined_selectivity)

    @property
    def filter_text(self) -> str | None:
        if not self.filters:
            return None
        return " AND ".join(str(predicate) for predicate in self.filters)

    def best_indexable_filter(self) -> PredicateEstimate | None:
        """The most selective index-eligible filter estimate, if any."""
        candidates = [estimate for estimate in self.filter_estimates if estimate.index_eligible]
        if not candidates:
            return None
        return min(candidates, key=lambda estimate: estimate.selectivity)


@dataclass
class QueryAnalysis:
    """Engine-agnostic decomposition of a query."""

    query: ast.Query
    tables: list[str]
    access: dict[str, TableAccessInfo]
    join_edges: list[JoinEdge]
    aggregates: list[ast.FunctionCall]
    group_by_columns: list[tuple[str, str]]
    order_by_columns: list[tuple[str, str, bool]]
    limit: int | None
    offset: int | None

    @property
    def is_aggregation(self) -> bool:
        return bool(self.aggregates) or bool(self.group_by_columns)

    @property
    def is_top_n(self) -> bool:
        return bool(self.order_by_columns) and self.limit is not None

    @property
    def join_count(self) -> int:
        return len(self.join_edges)

    def edges_between(self, placed: set[str], table: str) -> list[JoinEdge]:
        """Join edges connecting ``table`` to any already-placed table."""
        return [
            edge
            for edge in self.join_edges
            if edge.involves(table) and edge.other_side(table)[0] in placed
        ]


def _owning_table(catalog: Catalog, query_tables: list[str], column: str) -> str | None:
    """Which of the query's tables owns ``column`` (None if not found)."""
    for table_name in query_tables:
        if catalog.table(table_name).has_column(column):
            return table_name
    return None


def _classify_conjunct(
    catalog: Catalog,
    query_tables: list[str],
    conjunct: ast.Expression,
) -> tuple[str, object]:
    """Classify one conjunct as a join edge, a single-table filter, or other.

    Returns ``("join", JoinEdge)``, ``("filter", (table, expr))`` or
    ``("other", expr)``.
    """
    if ast.is_join_predicate(conjunct):
        assert isinstance(conjunct, ast.Comparison)
        left = conjunct.left
        right = conjunct.right
        assert isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)
        left_table = left.table or _owning_table(catalog, query_tables, left.name)
        right_table = right.table or _owning_table(catalog, query_tables, right.name)
        if left_table and right_table and left_table != right_table:
            return "join", JoinEdge(left_table, left.name, right_table, right.name)
    referenced = conjunct.referenced_columns()
    owners = {_owning_table(catalog, query_tables, column) for column in referenced}
    owners.discard(None)
    if len(owners) == 1:
        return "filter", (owners.pop(), conjunct)
    return "other", conjunct


def analyze_query(query: ast.Query, catalog: Catalog, statistics: StatisticsCatalog) -> QueryAnalysis:
    """Decompose ``query`` into the structure both optimizers consume.

    Raises
    ------
    KeyError
        If the query references a table or column not in the catalog.
    """
    tables = [table.lower() for table in query.tables]
    for table_name in tables:
        catalog.table(table_name)  # validate existence early

    access = {
        table_name: TableAccessInfo(table=table_name, base_rows=catalog.row_count(table_name))
        for table_name in tables
    }
    join_edges: list[JoinEdge] = []
    for conjunct in ast.conjuncts(query.where):
        kind, payload = _classify_conjunct(catalog, tables, conjunct)
        if kind == "join":
            assert isinstance(payload, JoinEdge)
            join_edges.append(payload)
        elif kind == "filter":
            table_name, expression = payload  # type: ignore[misc]
            info = access[table_name]
            info.filters.append(expression)
            info.filter_estimates.append(statistics.estimate_predicate(table_name, expression))
        else:
            # Cross-table non-equi predicate: attach to the first referenced
            # table conservatively so it is at least applied somewhere.
            referenced = payload.referenced_columns()  # type: ignore[union-attr]
            for table_name in tables:
                table = catalog.table(table_name)
                if any(table.has_column(column) for column in referenced):
                    access[table_name].filters.append(payload)  # type: ignore[arg-type]
                    access[table_name].filter_estimates.append(
                        statistics.estimate_predicate(table_name, payload)  # type: ignore[arg-type]
                    )
                    break

    # Column requirements: everything referenced by the query, attributed to
    # its owning table (drives AP column pruning).
    for column in query.referenced_columns():
        owner = _owning_table(catalog, tables, column)
        if owner is not None:
            access[owner].required_columns.add(column)
    for edge in join_edges:
        access[edge.left_table].required_columns.add(edge.left_column)
        access[edge.right_table].required_columns.add(edge.right_column)

    aggregates = [
        item.expression
        for item in query.select_items
        if isinstance(item.expression, ast.FunctionCall) and item.expression.is_aggregate
    ]
    group_by_columns: list[tuple[str, str]] = []
    for expression in query.group_by:
        if isinstance(expression, ast.ColumnRef):
            owner = expression.table or _owning_table(catalog, tables, expression.name)
            if owner is not None:
                group_by_columns.append((owner, expression.name))
    order_by_columns: list[tuple[str, str, bool]] = []
    for item in query.order_by:
        if isinstance(item.expression, ast.ColumnRef):
            owner = item.expression.table or _owning_table(catalog, tables, item.expression.name)
            if owner is not None:
                order_by_columns.append((owner, item.expression.name, item.descending))

    return QueryAnalysis(
        query=query,
        tables=tables,
        access=access,
        join_edges=join_edges,
        aggregates=aggregates,
        group_by_columns=group_by_columns,
        order_by_columns=order_by_columns,
        limit=query.limit,
        offset=query.offset,
    )

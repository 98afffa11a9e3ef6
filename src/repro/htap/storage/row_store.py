"""Row-store (TP engine) storage model.

The TP engine stores tables in heap pages of fixed size with B+-tree indexes
on primary keys, foreign keys, and any user-created secondary indexes.  The
model exposes the quantities the TP optimizer and the latency model need:

* pages per table (drives full-scan cost),
* index height and matching-leaf estimates (drives index-lookup cost),
* per-row access cost constants for sequential vs random access.

No rows are materialised; everything derives from catalog cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.htap.catalog import Catalog, Index
from repro.htap.storage.btree import BPlusTree

#: Heap page size for the row store.
PAGE_SIZE_BYTES = 8192
#: Per-page fill factor (free space for updates, standard for OLTP stores).
FILL_FACTOR = 0.9
#: Default B+-tree fanout used for index height estimation.
INDEX_FANOUT = 256


@dataclass(frozen=True)
class RowStoreStats:
    """Physical statistics of one table in the row store."""

    table: str
    row_count: int
    row_width_bytes: int
    rows_per_page: int
    page_count: int
    size_bytes: int


class RowStoreModel:
    """Analytical model of the TP engine's row-oriented storage."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def table_stats(self, table_name: str) -> RowStoreStats:
        """Physical layout statistics for ``table_name``."""
        table = self.catalog.table(table_name)
        row_count = self.catalog.row_count(table_name)
        row_width = table.row_width_bytes()
        rows_per_page = max(1, int((PAGE_SIZE_BYTES * FILL_FACTOR) // row_width))
        page_count = max(1, -(-row_count // rows_per_page))  # ceil division
        return RowStoreStats(
            table=table_name,
            row_count=row_count,
            row_width_bytes=row_width,
            rows_per_page=rows_per_page,
            page_count=page_count,
            size_bytes=page_count * PAGE_SIZE_BYTES,
        )

    # ----------------------------------------------------------------- scans
    def full_scan_pages(self, table_name: str) -> int:
        """Pages read by a full table scan."""
        return self.table_stats(table_name).page_count

    # ---------------------------------------------------------------- indexes
    def index_height(self, index: Index) -> int:
        """Height of the B+-tree backing ``index``."""
        row_count = self.catalog.row_count(index.table)
        return BPlusTree.estimated_height(row_count, order=INDEX_FANOUT)

    def index_lookup_pages(self, index: Index, matching_rows: float) -> float:
        """Pages touched by an index lookup returning ``matching_rows`` rows.

        One page per tree level for the descent, plus (for non-covering
        secondary indexes) roughly one heap page per matching row because the
        heap order is uncorrelated with the index order.
        """
        descent = self.index_height(index)
        heap_fetches = matching_rows if not index.primary else max(1.0, matching_rows)
        return descent + heap_fetches

"""Unit tests for the columnar layout.

Pins the :class:`ColumnBlock` edge cases its consumers (type inference,
the interned mirror) lean on: zero-arity relations, empty row sets,
out-of-range access, and row reconstruction from columns.
"""

import pytest

from repro.catalog.columnar import ColumnBlock


class TestColumnBlockEdges:
    def test_zero_arity_rows(self):
        block = ColumnBlock.from_rows(0, [()], version=3)
        assert len(block) == 1
        assert block.arity == 0
        assert block.int_rows() == [()]
        assert block.row(0) == ()

    def test_zero_arity_empty(self):
        block = ColumnBlock.from_rows(0, [], version=0)
        assert len(block) == 0
        assert block.int_rows() == []

    def test_empty_rows_positive_arity(self):
        block = ColumnBlock.from_rows(2, [], version=1)
        assert len(block) == 0
        assert block.int_rows() == []

    def test_row_index_out_of_range(self):
        block = ColumnBlock.from_rows(2, [(1, 2)], version=0)
        assert block.row(0) == (1, 2)
        with pytest.raises(IndexError):
            block.row(1)

    def test_int_rows_memoized_from_columns(self):
        # Build without from_rows so int_rows reconstructs from columns.
        source = ColumnBlock.from_rows(2, [(1, 2), (3, 4)], version=0)
        rebuilt = ColumnBlock(2, 0, source.columns)
        assert rebuilt.int_rows() == [(1, 2), (3, 4)]
        assert rebuilt.int_rows() is rebuilt.int_rows()

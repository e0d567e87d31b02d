"""Columnar storage layout over interned symbol ids.

A :class:`ColumnBlock` is the column-major mirror of a relation's row set:
one ``array('q')`` (signed 64-bit) per column, holding symbol ids from the
process-wide :data:`~repro.catalog.symbols.SYMBOLS` table.  Blocks are
immutable snapshots stamped with the relation version they were built
from; :meth:`Relation.column_block` memoizes one block per version.
"""

from __future__ import annotations

from array import array
from typing import Sequence

__all__ = ["ColumnBlock"]


class ColumnBlock:
    """An immutable column-major snapshot of interned rows."""

    __slots__ = ("arity", "version", "length", "columns", "_int_rows")

    def __init__(
        self,
        arity: int,
        version: int,
        columns: Sequence[array],
        length: int | None = None,
    ) -> None:
        self.arity = arity
        self.version = version
        self.columns: tuple[array, ...] = tuple(columns)
        # Zero-arity blocks have no columns to infer a row count from, so
        # the count is explicit; for positive arity the first column rules.
        if self.columns:
            self.length = len(self.columns[0])
        else:
            self.length = 0 if length is None else length
        self._int_rows: list[tuple[int, ...]] | None = None

    @classmethod
    def from_rows(
        cls, arity: int, rows: Sequence[tuple[int, ...]], version: int
    ) -> "ColumnBlock":
        columns = [array("q") for _ in range(arity)]
        if rows:
            # zip(*rows) is empty for an empty row set *and* for zero-arity
            # rows; guarding on ``rows`` keeps both from silently diverging
            # from the explicit length below.
            for column, values in zip(columns, zip(*rows)):
                column.extend(values)
        block = cls(arity, version, columns, length=len(rows))
        block._int_rows = list(rows)
        return block

    def __len__(self) -> int:
        return self.length

    def row(self, index: int) -> tuple[int, ...]:
        if index >= self.length:
            raise IndexError(f"row index {index} out of range for {self.length} rows")
        return tuple(column[index] for column in self.columns)

    def int_rows(self) -> list[tuple[int, ...]]:
        """Row-major view (memoized): ``list`` of id tuples."""
        rows = self._int_rows
        if rows is None:
            if self.columns:
                rows = list(zip(*self.columns))
            else:
                rows = [()] * self.length
            self._int_rows = rows
        return rows

"""Unit tests for the process-wide symbol table and the columnar mirror.

Covers :mod:`repro.catalog.symbols` (intern/extern identity, the
first-representative rule, append-only growth) and the coherence of
:class:`~repro.catalog.relation.Relation`'s interned mirror and columnar
snapshot with its mutation version — the invariants the kernel executor's
``(identity, version)`` caches rely on.
"""

import pytest

from repro.catalog.columnar import ColumnBlock
from repro.catalog.relation import Relation
from repro.catalog.symbols import SYMBOLS, SymbolTable
from repro.errors import ArityError
from repro.logic.terms import Constant


class TestSymbolTable:
    def test_intern_is_stable_and_extern_inverts(self):
        table = SymbolTable()
        alpha = Constant("alpha")
        sid = table.intern(alpha)
        assert table.intern(alpha) == sid
        assert table.intern(Constant("alpha")) == sid
        assert table.extern(sid) == alpha

    def test_distinct_constants_get_distinct_ids(self):
        table = SymbolTable()
        ids = {table.intern(Constant(v)) for v in ("a", "b", 1, 2.5)}
        assert len(ids) == 4

    def test_numeric_equality_shares_an_id(self):
        # Constant(3) == Constant(3.0) (Python numeric equality), so the
        # two must intern identically — id-equality IS constant-equality.
        table = SymbolTable()
        assert table.intern(Constant(3)) == table.intern(Constant(3.0))
        # bool is not folded into int by Constant equality.
        assert table.intern(Constant(True)) != table.intern(Constant(1))

    def test_extern_returns_first_interned_representative(self):
        table = SymbolTable()
        table.intern(Constant(3))
        sid = table.intern(Constant(3.0))
        representative = table.extern(sid)
        assert representative == Constant(3)
        assert isinstance(representative.value, int)

    def test_table_is_append_only(self):
        table = SymbolTable()
        before = len(table)
        table.intern(Constant("fresh-entry"))
        assert len(table) == before + 1
        table.intern(Constant("fresh-entry"))
        assert len(table) == before + 1

    def test_row_round_trip(self):
        row = (Constant("a"), Constant(7), Constant(False))
        assert SYMBOLS.extern_row(SYMBOLS.intern_row(row)) == row


class TestRelationInternedMirror:
    def test_int_rows_track_inserts_eagerly(self):
        relation = Relation(2, [("a", "b")])
        first = relation.int_rows()
        assert first == [SYMBOLS.intern_row((Constant("a"), Constant("b")))]
        relation.insert(("b", "c"))
        assert len(relation.int_rows()) == 2

    def test_delete_dirties_and_rebuild_matches_rows(self):
        relation = Relation(2, [("a", "b"), ("b", "c")])
        relation.int_rows()
        relation.delete(("a", "b"))
        rebuilt = relation.int_rows()
        assert rebuilt == [SYMBOLS.intern_row(row) for row in relation.rows()]

    def test_copy_rebuilds_mirror_independently(self):
        relation = Relation(1, [("a",)])
        clone = relation.copy()
        clone.insert(("b",))
        assert len(clone.int_rows()) == 2
        assert len(relation.int_rows()) == 1

    def test_restore_drops_mirror_with_other_derived_state(self):
        relation = Relation(1, [("a",)])
        snapshot = relation.checkpoint()
        relation.insert(("b",))
        relation.int_rows()
        relation.restore(snapshot)
        assert relation.int_rows() == [SYMBOLS.intern_row((Constant("a"),))]

    def test_column_block_memoized_per_version(self):
        relation = Relation(2, [("a", "b")])
        block = relation.column_block()
        assert relation.column_block() is block
        relation.insert(("b", "c"))
        refreshed = relation.column_block()
        assert refreshed is not block
        assert refreshed.version == relation.version
        assert refreshed.int_rows() == relation.int_rows()


class TestLoadInterned:
    def test_load_interned_equals_insert_many(self):
        rows = [("a", "b"), ("b", "c"), ("c", "d")]
        via_insert = Relation(2, rows)
        via_load = Relation(2)
        added = via_load.load_interned(
            [SYMBOLS.intern_row(row) for row in via_insert.rows()]
        )
        assert added == 3
        assert via_load.rows() == via_insert.rows()
        assert via_load.int_rows() == via_insert.int_rows()

    def test_load_interned_deduplicates_against_existing_rows(self):
        relation = Relation(2, [("a", "b")])
        existing = SYMBOLS.intern_row((Constant("a"), Constant("b")))
        fresh = SYMBOLS.intern_row((Constant("b"), Constant("c")))
        assert relation.load_interned([existing, fresh]) == 1
        assert len(relation) == 2
        # The lazily rebuilt mirror matches the merged row set.
        assert relation.int_rows() == [
            SYMBOLS.intern_row(row) for row in relation.rows()
        ]

    def test_load_interned_bumps_version_and_resets_journal(self):
        relation = Relation(1, [("a",)])
        version = relation.version
        relation.load_interned([SYMBOLS.intern_row((Constant("b"),))])
        assert relation.version > version
        # Wholesale mutation: the delta is unreconstructable by design.
        assert relation.changes_since(version) is None

    def test_load_interned_checks_arity(self):
        relation = Relation(2)
        with pytest.raises(ArityError):
            relation.load_interned([SYMBOLS.intern_row((Constant("a"),))])

    def test_noop_on_empty_or_all_duplicate_input(self):
        relation = Relation(1, [("a",)])
        version = relation.version
        assert relation.load_interned([]) == 0
        assert (
            relation.load_interned([SYMBOLS.intern_row((Constant("a"),))]) == 0
        )
        assert relation.version == version


class TestColumnBlock:
    def test_from_rows_and_row_access(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        block = ColumnBlock.from_rows(2, rows, version=7)
        assert block.arity == 2
        assert block.version == 7
        assert [block.row(i) for i in range(3)] == rows
        assert block.int_rows() == rows

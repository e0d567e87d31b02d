"""In-memory stored relations with per-column hash indexes.

Each EDB predicate's fact set is a :class:`Relation`: a set of constant
tuples plus lazily built per-column indexes, so pattern lookups with bound
arguments avoid full scans.  This is the storage substrate under the
deductive engine.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.catalog.columnar import ColumnBlock
from repro.catalog.symbols import SYMBOLS
from repro.errors import ArityError, CatalogError
from repro.logic.terms import Constant, Term, is_constant, make_term

#: A stored tuple: constants only.
Row = tuple[Constant, ...]

#: How many recent mutations a relation's change journal retains.  Deltas
#: older than the journal window (or spanning a :meth:`Relation.restore` /
#: :meth:`Relation.clear`) are reported as unavailable, forcing dependent
#: caches to fall back to full recomputation.
JOURNAL_LIMIT = 1024


class Relation:
    """A set of ground tuples of fixed arity, with hash indexes.

    Indexes are built per column on first use and maintained incrementally
    afterwards.  Iteration order is insertion order (deterministic runs).
    """

    def __init__(self, arity: int, rows: Iterable[Sequence[object]] = ()) -> None:
        if arity < 0:
            raise CatalogError(f"relation arity must be non-negative, got {arity}")
        self.arity = arity
        #: A frozen relation belongs to a published :class:`KBSnapshot`
        #: (:mod:`repro.catalog.snapshot`): every mutator raises, so readers
        #: holding it need no locks.
        self._frozen = False
        #: Whether ``_rows``/``_introws`` are currently shared with a frozen
        #: snapshot copy.  The first mutation after a :meth:`freeze` rebinds
        #: them to private copies (copy-on-write), so publication itself is
        #: O(1) per relation and the copy is paid only by relations that
        #: actually change afterwards.
        self._shared = False
        self._rows: dict[Row, None] = {}
        #: Index buckets are insertion-ordered ``dict[Row, None]`` sets:
        #: deterministic iteration like a list, O(1) delete unlike one.
        self._indexes: dict[int, dict[Constant, dict[Row, None]]] = {}
        #: Mutation counter; memoized statistics and external caches (the
        #: kernel executor's build tables) are valid while it is unchanged.
        self._version = 0
        #: Memoized per-column distinct counts: column -> (version, count).
        self._stats: dict[int, tuple[int, int]] = {}
        #: Bounded change journal: entry i records the mutation that took the
        #: relation from version ``_journal_base + i`` to ``+ i + 1``.
        self._journal: deque[tuple[str, Row]] = deque()
        self._journal_base = 0
        #: How many times the journal was reset by a wholesale state change
        #: (clear/restore/bulk load).  Each reset strands incremental
        #: consumers — view-cache repairs and WAL diffs fall back to full
        #: recompute/reload — so the counter makes those fallbacks
        #: diagnosable (surfaced via ``Session.cache_stats``).
        self.journal_resets = 0
        #: Interned mirror of ``_rows``: symbol-id tuples in insertion
        #: order, maintained eagerly on the append path (constants are
        #: interned at insert time) and dropped to ``None`` (dirty) by any
        #: non-append mutation; :meth:`int_rows` rebuilds it lazily.
        self._introws: list[tuple[int, ...]] | None = []
        #: Memoized columnar snapshot, valid while its version matches.
        self._block: ColumnBlock | None = None
        for row in rows:
            self.insert(row)

    # -- mutation -----------------------------------------------------------------

    def _assert_mutable(self) -> None:
        if self._frozen:
            raise CatalogError(
                "relation belongs to a published snapshot and is immutable; "
                "mutate the live knowledge base instead"
            )

    def _unshare(self) -> None:
        """Privatize row storage shared with a frozen snapshot copy.

        Called on entry to every in-place mutator: the frozen copy made by
        :meth:`freeze` keeps the *original* dict/list, the live relation
        continues on private copies.  Mutators that wholesale-rebind their
        storage (:meth:`restore`, :meth:`clear`) just drop the shared flag.
        """
        if self._shared:
            self._rows = dict(self._rows)
            if self._introws is not None:
                self._introws = list(self._introws)
            self._shared = False

    def _coerce(self, row: Sequence[object]) -> Row:
        if len(row) != self.arity:
            raise ArityError(f"expected {self.arity} columns, got {len(row)}")
        coerced = []
        for value in row:
            term = make_term(value)
            if not is_constant(term):
                raise CatalogError(f"stored rows must be ground, got variable {term}")
            coerced.append(term)
        return tuple(coerced)

    def insert(self, row: Sequence[object]) -> bool:
        """Insert a row; returns ``False`` if it was already present."""
        self._assert_mutable()
        coerced = self._coerce(row)
        if coerced in self._rows:
            return False
        self._unshare()
        self._rows[coerced] = None
        self._version += 1
        self._log("+", coerced)
        if self._introws is not None:
            self._introws.append(SYMBOLS.intern_row(coerced))
        for column, index in self._indexes.items():
            index.setdefault(coerced[column], {})[coerced] = None
        return True

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert many rows; returns how many were new."""
        return sum(1 for row in rows if self.insert(row))

    def load_interned(self, int_rows: Sequence[tuple[int, ...]]) -> int:
        """Bulk-load rows given as symbol-id tuples (the kernel flush path).

        Semantically ``insert_many`` of the externalized rows, but
        wholesale: one C-level dict build instead of per-row coercion and
        journaling.  Because the mutation is not row-at-a-time, journal
        semantics follow :meth:`restore` — derived structures drop, the
        version bumps, and the journal resets so incremental consumers
        recompute.  Returns how many rows were new.
        """
        self._assert_mutable()
        if not int_rows:
            return 0
        extern_row = SYMBOLS.extern_row
        rows = [extern_row(irow) for irow in int_rows]
        for row in rows:
            if len(row) != self.arity:
                raise ArityError(f"expected {self.arity} columns, got {len(row)}")
        self._unshare()
        before = len(self._rows)
        was_empty = before == 0
        self._rows.update(dict.fromkeys(rows))
        added = len(self._rows) - before
        if not added:
            return 0
        self._invalidate_derived()
        if was_empty and len(self._rows) == len(int_rows):
            # No duplicates collapsed: the id tuples are the exact mirror.
            self._introws = list(int_rows)
        return added

    def delete(self, row: Sequence[object]) -> bool:
        """Delete a row; returns ``False`` if it was absent.

        O(1) per maintained index: buckets are hash sets, not lists.
        """
        self._assert_mutable()
        coerced = self._coerce(row)
        if coerced not in self._rows:
            return False
        self._unshare()
        del self._rows[coerced]
        self._version += 1
        self._log("-", coerced)
        self._introws = None
        self._block = None
        for column, index in self._indexes.items():
            bucket = index.get(coerced[column])
            if bucket is not None:
                bucket.pop(coerced, None)
                if not bucket:
                    del index[coerced[column]]
        return True

    def clear(self) -> None:
        """Remove every row."""
        self._assert_mutable()
        if self._shared:
            # The frozen snapshot copy keeps the old dict; no point copying
            # rows only to clear them.
            self._rows = {}
            self._shared = False
        else:
            self._rows.clear()
        self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Drop every derived structure after a wholesale row-set change.

        One sequence shared by :meth:`clear` and :meth:`restore` so the two
        can never diverge: indexes and memoized per-column statistics are
        dropped (rebuilt lazily), the version is bumped so external caches
        keyed on ``(relation, version)`` cannot serve stale state, and the
        journal is reset so incremental consumers fall back to full
        recomputation.  A missed step here is a stale-probe-column bug in
        :meth:`lookup` — pinned by ``tests/catalog/test_relation_invalidation.py``.
        """
        self._indexes.clear()
        self._stats.clear()
        self._introws = None
        self._block = None
        self._version += 1
        self._reset_journal()

    def _log(self, op: str, row: Row) -> None:
        self._journal.append((op, row))
        if len(self._journal) > JOURNAL_LIMIT:
            self._journal.popleft()
            self._journal_base += 1

    def _reset_journal(self) -> None:
        """Forget the journal after a wholesale state change (clear/restore).

        Deltas spanning the reset become unreconstructable, which is exactly
        right: the mutation was not row-at-a-time, so version-keyed caches
        must recompute from scratch.
        """
        self._journal.clear()
        self._journal_base = self._version
        self.journal_resets += 1

    def changes_since(self, version: int) -> list[tuple[str, Row]] | None:
        """The mutations applied since *version*, oldest first, or ``None``.

        Each entry is ``("+", row)`` for an insert or ``("-", row)`` for a
        delete.  ``None`` means the journal cannot reconstruct the delta —
        *version* predates the journal window, or a :meth:`clear` /
        :meth:`restore` intervened — and the caller must treat the whole
        relation as changed.
        """
        if version == self._version:
            return []
        if version < self._journal_base or version > self._version:
            return None
        start = version - self._journal_base
        return list(self._journal)[start:]

    # -- access ---------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: changes iff the row set changed.

        External caches keyed on ``(relation, version)`` — memoized
        statistics, the kernel executor's build tables — stay valid exactly
        while the version is unchanged.
        """
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        if not isinstance(row, tuple):
            return False
        try:
            coerced = self._coerce(row)
        except (ArityError, CatalogError):
            return False
        return coerced in self._rows

    def rows(self) -> list[Row]:
        """All rows, in insertion order."""
        return list(self._rows)

    def int_rows(self) -> list[tuple[int, ...]]:
        """The rows as symbol-id tuples, in insertion order.

        Ids come from the process-wide :data:`~repro.catalog.symbols.SYMBOLS`
        table; id-equality is exactly constant-equality.  The mirror is
        maintained eagerly on inserts and rebuilt here after any other
        mutation.  Callers must treat the returned list as immutable — it
        is shared with the kernel executor's caches, which key on
        :attr:`version`.
        """
        rows = self._introws
        if rows is None:
            intern_row = SYMBOLS.intern_row
            rows = [intern_row(row) for row in self._rows]
            self._introws = rows
        return rows

    def column_block(self) -> ColumnBlock:
        """The columnar (``array('q')``) snapshot of :meth:`int_rows`.

        Memoized per version: valid exactly while the row set is
        unchanged, the same coherence rule as the memoized statistics and
        the executors' hash tables.
        """
        block = self._block
        if block is None or block.version != self._version:
            block = ColumnBlock.from_rows(self.arity, self.int_rows(), self._version)
            self._block = block
        return block

    def _index_for(self, column: int) -> dict[Constant, dict[Row, None]]:
        if column not in self._indexes:
            index: dict[Constant, dict[Row, None]] = {}
            for row in self._rows:
                index.setdefault(row[column], {})[row] = None
            self._indexes[column] = index
        return self._indexes[column]

    def lookup(self, pattern: Sequence[Term | None]) -> Iterator[Row]:
        """Rows matching a pattern of constants and wildcards.

        *pattern* has one entry per column: a :class:`Constant` pins the
        column, a variable or ``None`` leaves it free.  The most selective
        bound column drives an index probe; remaining bound columns filter.
        """
        if len(pattern) != self.arity:
            raise ArityError(f"pattern arity {len(pattern)} != relation arity {self.arity}")
        bound = [
            (i, term)
            for i, term in enumerate(pattern)
            if term is not None and is_constant(term)
        ]
        if not bound:
            yield from self._rows
            return
        probe_column, probe_value = bound[0]
        if len(bound) > 1 and self._rows:
            # Prefer the column with the most distinct values (smallest
            # expected bucket).  distinct_count is memoized, so choosing the
            # probe costs no index builds; only the winner's index is
            # materialised below.
            best_count = -1
            for column, value in bound:
                count = self.distinct_count(column)
                if count > best_count:
                    best_count = count
                    probe_column, probe_value = column, value
        candidates = self._index_for(probe_column).get(probe_value, [])  # type: ignore[arg-type]
        rest = [(i, v) for i, v in bound if i != probe_column]
        for row in candidates:
            if all(row[i] == v for i, v in rest):
                yield row

    def distinct_count(self, column: int) -> int:
        """Number of distinct values in a column.

        O(1) when the column's index exists; otherwise computed once and
        memoized until the next mutation — the planner can ask for
        statistics without forcing an index build.
        """
        if not 0 <= column < self.arity:
            raise ArityError(f"column {column} out of range for arity {self.arity}")
        index = self._indexes.get(column)
        if index is not None:
            return len(index)
        cached = self._stats.get(column)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        count = len({row[column] for row in self._rows})
        self._stats[column] = (self._version, count)
        return count

    def copy(self) -> "Relation":
        """An independent copy (indexes rebuilt lazily)."""
        clone = Relation(self.arity)
        clone._rows = dict(self._rows)
        clone._introws = None  # rebuilt lazily, like the indexes
        return clone

    def freeze(self) -> "Relation":
        """An immutable copy sharing row storage with this relation — O(1).

        The copy takes the *current* ``_rows`` dict, interned mirror, and
        columnar blocks by reference and keeps this relation's version
        number, so caches keyed on ``(relation, version)`` — the view
        cache's dependency fingerprints above all — remain valid across
        the freeze.  This relation is marked shared: its next in-place
        mutation privatizes the storage (see :meth:`_unshare`), leaving
        the frozen copy untouched.  Index buckets and the change journal
        are *not* shared — live mutators update them in place — so the
        frozen copy rebuilds indexes lazily and reports no deltas.

        Frozen copies are safe for concurrent readers without locks:
        every mutator raises, and the remaining lazy memoizations
        (indexes, statistics, columnar blocks) are idempotent rebinds.
        """
        if self._frozen:
            return self
        clone = Relation.__new__(Relation)
        clone.arity = self.arity
        clone._frozen = True
        clone._shared = False
        clone._rows = self._rows
        clone._indexes = {}
        clone._version = self._version
        clone._stats = dict(self._stats)
        clone._journal = deque()
        clone._journal_base = self._version
        clone.journal_resets = self.journal_resets
        clone._introws = self._introws
        clone._block = self._block
        self._shared = True
        return clone

    @property
    def frozen(self) -> bool:
        """Whether this relation belongs to a published snapshot."""
        return self._frozen

    # -- transactions -----------------------------------------------------------------

    def checkpoint(self) -> dict[Row, None]:
        """A snapshot of the row set, for transactional rollback.

        O(rows) shallow dict copy; rows themselves are immutable tuples.
        """
        return dict(self._rows)

    def restore(self, snapshot: dict[Row, None]) -> None:
        """Reset the row set to a :meth:`checkpoint` snapshot.

        Indexes and memoized statistics are dropped (rebuilt lazily) and the
        version is bumped past every mid-transaction value, so external
        caches keyed on ``(relation, version)`` cannot serve stale state.
        """
        self._assert_mutable()
        self._rows = dict(snapshot)
        self._shared = False  # rebinding privatizes the row storage
        self._invalidate_derived()

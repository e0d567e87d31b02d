"""Process-wide constant interning: every constant gets a small int id.

The kernel executor (:mod:`repro.engine.kernels`) joins over plain ints
instead of :class:`~repro.logic.terms.Constant` objects.  Hashing a
``Constant`` allocates a tuple per call (``hash(("const", value))``); an
``int`` hashes to itself.  The :class:`SymbolTable` maps each constant to a
dense id once, at load/insert time, so the hot join loops never touch a
``Constant`` again until answers are externalized.

Design points:

* **Keys are the ``Constant`` objects themselves.**  The table inherits
  ``Constant`` equality exactly: ``Constant(3) == Constant(3.0)`` share one
  id (so id-equality is *precisely* constant-equality, which is what joins
  and ``=``/``!=`` comparisons need), while ``Constant(True)`` and
  ``Constant(1)`` stay distinct.  :meth:`extern` returns the
  first-interned representative of an equality class; since answer sets
  compare by constant equality, this preserves answer-set identity across
  executors.
* **Append-only.**  Ids are never reused or remapped, so interned columns
  cached anywhere in the process stay valid for its lifetime.  A fault
  (guard cancellation, injected error) can at worst leave an *unused* id
  behind — never a dangling or remapped one, so there is no such thing as
  a half-interned symbol.
* **Un-interned constants stay the source of truth.**  Relations keep
  their original ``Constant`` rows; persistence (save/load, CSV) and REPL
  display read those, so round-trips are byte-for-byte regardless of what
  was interned.  Interning is an acceleration structure, not a storage
  format.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from repro.logic.terms import Constant

__all__ = ["SymbolTable", "SYMBOLS"]


class SymbolTable:
    """A bidirectional, append-only ``Constant`` <-> ``int`` mapping."""

    __slots__ = ("_ids", "_constants", "_lock")

    def __init__(self) -> None:
        self._ids: dict[Constant, int] = {}
        self._constants: list[Constant] = []
        self._lock = threading.Lock()

    def intern(self, constant: Constant) -> int:
        """The id for *constant*, allocating one on first sight."""
        sid = self._ids.get(constant)
        if sid is not None:
            return sid
        with self._lock:
            sid = self._ids.get(constant)
            if sid is None:
                sid = len(self._constants)
                self._constants.append(constant)
                self._ids[constant] = sid
        return sid

    def intern_row(self, row: Sequence[Constant]) -> tuple[int, ...]:
        """Intern every constant of a stored row."""
        intern = self.intern
        return tuple(intern(constant) for constant in row)

    def extern(self, sid: int) -> Constant:
        """The constant for an id (first-interned representative)."""
        return self._constants[sid]

    def extern_row(self, row: Sequence[int]) -> tuple[Constant, ...]:
        """Map a row of ids back to constants."""
        constants = self._constants
        return tuple(constants[sid] for sid in row)

    def extern_rows(
        self, rows: Iterable[Sequence[int]]
    ) -> list[tuple[Constant, ...]]:
        constants = self._constants
        return [tuple(constants[sid] for sid in row) for row in rows]

    def constants(self) -> list[Constant]:
        """A snapshot of the id -> constant mapping (index = id)."""
        return list(self._constants)

    def __len__(self) -> int:
        return len(self._constants)

    def __contains__(self, constant: object) -> bool:
        return constant in self._ids


#: The process-wide table.  Relations intern into it at insert time; the
#: kernel compiler and executors read it.  Append-only, so sharing one
#: table across every knowledge base in the process is safe.
SYMBOLS = SymbolTable()

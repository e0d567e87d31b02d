"""Interning invariants: round-trips through the symbol table and persistence.

The kernel executor rewrites every constant into a symbol id from the
process-wide :data:`repro.catalog.symbols.SYMBOLS` table.  Three things
must hold for that to be invisible to users:

* ``extern(intern(c))`` is *equal* to ``c`` for every constant, and equal
  constants intern to the same id (id-equality is constant-equality);
* the three bottom-up executors derive identical answer sets on any
  program (interning must not change semantics);
* persistence writes the original, un-interned constants: ``save_kb`` /
  ``load_kb`` and CSV export/import round-trip byte-for-byte even after a
  kernel-executor run has interned the whole knowledge base.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.catalog.persist import export_csv, import_csv, load_kb, save_kb
from repro.catalog.symbols import SYMBOLS
from repro.engine import retrieve
from repro.engine.seminaive import SemiNaiveEngine
from repro.datasets import random_graph_kb
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable

#: Scalars storable in a relation.  Text is drawn from a safe alphabet so
#: the same values also ride through the CSV tests unambiguously (and
#: never parse as variables or wildcards — no leading underscore).
SAFE_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
SCALARS = st.one_of(
    st.integers(-(10**9), 10**9),
    SAFE_TEXT,
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)


class TestSymbolTable:
    @settings(max_examples=100, deadline=None)
    @given(value=SCALARS)
    def test_extern_intern_identity(self, value):
        constant = Constant(value)
        sid = SYMBOLS.intern(constant)
        assert SYMBOLS.extern(sid) == constant
        # Interning is idempotent: same constant, same id, every time.
        assert SYMBOLS.intern(constant) == sid
        assert SYMBOLS.intern(Constant(value)) == sid

    @settings(max_examples=100, deadline=None)
    @given(left=SCALARS, right=SCALARS)
    def test_id_equality_is_constant_equality(self, left, right):
        a, b = Constant(left), Constant(right)
        same_id = SYMBOLS.intern(a) == SYMBOLS.intern(b)
        assert same_id == (a == b)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(SCALARS, min_size=0, max_size=6))
    def test_row_round_trip(self, values):
        row = tuple(Constant(v) for v in values)
        assert SYMBOLS.extern_row(SYMBOLS.intern_row(row)) == row


class TestExecutorAnswerSets:
    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(3, 12),
        edges=st.integers(3, 24),
        seed=st.integers(0, 1_000),
    )
    def test_executors_agree_on_closure(self, nodes, edges, seed):
        kb = random_graph_kb(
            nodes=nodes, edges=min(edges, nodes * (nodes - 1)), seed=seed
        )
        subject = Atom("path", [Variable("X"), Variable("Y")])
        answers = {
            executor: retrieve(kb, subject, executor=executor).to_set()
            for executor in ("nested", "kernel")
        }
        assert answers["kernel"] == answers["nested"]


def _mixed_kb(rows):
    """An EDB relation of generated rows plus a rule that derives from it."""
    kb = KnowledgeBase("roundtrip")
    kb.declare_edb("cell", 2)
    kb.add_facts("cell", rows)
    kb.add_rule(
        Rule(
            Atom("known", [Variable("X")]),
            [Atom("cell", [Variable("X"), Variable("Y")])],
        )
    )
    return kb


def _intern_everything(kb):
    """Force the kernel executor over the whole kb (interns every constant)."""
    SemiNaiveEngine(kb, executor="kernel").derived_relation("known")


class TestPersistenceRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(SCALARS, SCALARS), min_size=1, max_size=10, unique=True
        )
    )
    def test_save_load_preserves_uninterned_constants(self, rows, tmp_path_factory):
        kb = _mixed_kb(rows)
        path = str(tmp_path_factory.mktemp("kb") / "kb.json")
        save_kb(kb, path)
        with open(path, "rb") as handle:
            before = handle.read()
        _intern_everything(kb)
        save_kb(kb, path)
        with open(path, "rb") as handle:
            after = handle.read()
        # Interning must be invisible to persistence: identical bytes.
        assert after == before
        loaded = load_kb(path)
        assert set(loaded.facts("cell")) == set(kb.facts("cell"))
        # The dump stores raw values, never symbol ids.
        document = json.loads(after)
        stored = {tuple(row) for row in document["edb"]["cell"]["rows"]}
        assert stored == {
            tuple(c.value for c in row) for row in kb.facts("cell")
        }

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            # CSV cells are strings: restrict to values whose textual form
            # coerces back unambiguously (ints and non-numeric text).
            st.tuples(st.integers(-(10**6), 10**6), SAFE_TEXT),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    def test_csv_export_import_preserves_uninterned_constants(
        self, rows, tmp_path_factory
    ):
        kb = _mixed_kb(rows)
        directory = tmp_path_factory.mktemp("csv")
        path = str(directory / "cell.csv")
        export_csv(kb, "cell", path)
        with open(path, "rb") as handle:
            before = handle.read()
        _intern_everything(kb)
        export_csv(kb, "cell", path)
        with open(path, "rb") as handle:
            after = handle.read()
        assert after == before
        fresh = KnowledgeBase("fresh")
        import_csv(fresh, "cell", path)
        assert set(fresh.facts("cell")) == set(kb.facts("cell"))

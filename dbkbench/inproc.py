"""The three in-process workloads: one client calling ``Session.query``.

Each workload object builds its inputs from the seed when constructed (the
set-up that ``setup_s`` times), performs operation *i* (:meth:`step`), and
checks what the timed loop returned against the repository's reference
paths (:meth:`check`) outside the timed region.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from dbkbench import inputs
from dbkbench.common import canonical, cpu_clock


def _reference(kb):
    """The differential oracle: the tuple-at-a-time ``nested`` executor, uncached."""
    from repro import Session

    return Session(kb, cache=False, plan_cache=False, executor="nested", lint="off")


class RetrieveCold:
    """Recursive closures and university joins through an uncached session."""

    name = "retrieve_cold"

    def __init__(self, seed: int, workdir: str, trace: bool = False) -> None:
        from repro import Session

        self.seed = seed
        self.kbs, cycles = inputs.retrieve_cold(seed)
        self.ops = [op for cycle in cycles for op in cycle]
        self.sessions = {
            name: Session(kb, cache=False, trace=trace) for name, kb in self.kbs.items()
        }
        # Check one full closure, one half-bound closure and the first
        # university joins of the first cycle against the oracle.
        rng = random.Random(f"{seed}:retrieve_cold/check")
        first = cycles[0]
        full = [i for i, (kb, text) in enumerate(first) if text == "retrieve path(X, Y)"]
        bound = [
            i for i, (kb, text) in enumerate(first)
            if text.startswith("retrieve path(") and text != "retrieve path(X, Y)"
        ]
        joins = [i for i, (kb, text) in enumerate(first) if kb == "university"]
        self.sample = {rng.choice(full), rng.choice(bound), *joins[:3]}
        self.answers: dict[int, object] = {}
        for name, session in self.sessions.items():
            session.query("retrieve edge(X, Y)" if name != "university" else "retrieve honor(X)")

    def step(self, index: int) -> dict:
        kb, text = self.ops[index % len(self.ops)]
        began = cpu_clock()
        result = self.sessions[kb].query(text)
        elapsed = cpu_clock() - began
        if index in self.sample:
            self.answers[index] = canonical(result)
        return {"read": elapsed}

    def check(self) -> tuple[int, list[str]]:
        failures = []
        for index, answer in sorted(self.answers.items()):
            kb, text = self.ops[index]
            expected = canonical(_reference(self.kbs[kb]).query(text))
            if answer != expected:
                failures.append(f"{kb}: {text}: {len(answer)} rows, oracle {len(expected)}")
        return len(self.answers), failures

    def describe_inputs(self) -> dict:
        return {
            "facts": sum(kb.fact_count() for kb in self.kbs.values()),
            "rules": sum(kb.rule_count() for kb in self.kbs.values()),
            "knowledge_bases": {name: kb.fact_count() for name, kb in self.kbs.items()},
            "distinct_statements": len(set(self.ops)),
            "ops_per_cycle": len(self.ops) // 64,
            "cache": False,
            "writes": 0,
        }

    def close(self) -> None:
        pass


class KnowledgeCold:
    """The paper's describe/compare statements through an uncached session."""

    name = "knowledge_cold"

    def __init__(self, seed: int, workdir: str, trace: bool = False) -> None:
        from repro import Session

        self.seed = seed
        self.kbs, cycles = inputs.knowledge_cold(seed)
        self.ops = [op for cycle in cycles for op in cycle]
        self.sessions = {
            name: Session(kb, cache=False, trace=trace) for name, kb in self.kbs.items()
        }
        # The first occurrence of each statement in the first two cycles,
        # which between them use every knowledge base.
        self.first: dict[tuple[str, str], int] = {}
        for index, op in enumerate(self.ops[: len(cycles[0]) + len(cycles[1])]):
            self.first.setdefault(op, index)
        self.sample = set(self.first.values())
        self.answers: dict[int, object] = {}
        for session in self.sessions.values():
            session.query("describe * where " + _any_atom(session.kb))

    def step(self, index: int) -> dict:
        kb, text = self.ops[index % len(self.ops)]
        began = cpu_clock()
        result = self.sessions[kb].query(text)
        elapsed = cpu_clock() - began
        if index in self.sample:
            self.answers[index] = result
        return {"read": elapsed}

    def check(self) -> tuple[int, list[str]]:
        from repro import Session

        failures = []
        texts = {text: key for key, text in inputs.PAPER_STATEMENTS.items()}
        for index, result in sorted(self.answers.items()):
            kb, text = self.ops[index]
            fresh = Session(self.kbs[kb], cache=False).query(text)
            if canonical(result) != canonical(fresh):
                failures.append(f"{kb}: {text}: differs from a fresh session")
            if text in texts:
                key = texts[text]
                if _paper_answer(key, result) != inputs.PAPER_ANSWERS[key]:
                    failures.append(f"{key}: {text}: differs from the paper's answer")
        return len(self.answers), failures

    def describe_inputs(self) -> dict:
        return {
            "facts": sum(kb.fact_count() for kb in self.kbs.values()),
            "rules": sum(kb.rule_count() for kb in self.kbs.values()),
            "knowledge_bases": {name: kb.rule_count() for name, kb in self.kbs.items()},
            "distinct_statements": len(set(self.ops)),
            "ops_per_cycle": len(self.ops) // 64,
            "cache": False,
            "writes": 0,
        }

    def close(self) -> None:
        pass


def _any_atom(kb) -> str:
    """A one-atom hypothesis over some EDB predicate of *kb* (warm-up only)."""
    predicate = kb.edb_predicates()[0]
    arity = kb.schema(predicate).arity
    return f"{predicate}({', '.join(f'W{i}' for i in range(arity))})"


def _paper_answer(key: str, result: object) -> object:
    """The part of a result the paper prints, in the form PAPER_ANSWERS holds."""
    if key in ("E3", "E4", "E5", "X1"):
        return sorted(str(answer) for answer in result.answers)
    if key == "X2":
        return result.necessary
    if key in ("X3f", "X3t"):
        return result.possible
    if key == "X4":
        return sorted(result)
    return result.relation


class MutateRequery:
    """Durable one-fact writes, each followed by a cached requery.

    Writes go through the public mutation API of a ``Session(durable=...)``
    with the shipped flush policy: an insert is a fact statement (one
    autocommitted, fsynced log record); a delete is a one-row transaction.
    """

    name = "mutate_requery"
    #: One operation in this many is checked against the oracle.
    CHECK_EVERY = 25

    def __init__(self, seed: int, workdir: str, trace: bool = False) -> None:
        from repro import Session

        self.seed = seed
        self.trace = trace
        self.directory = os.path.join(workdir, f"durable-{os.getpid()}-{time.perf_counter_ns()}")
        kb, self.shadow = inputs.mutate_kb(seed)
        self.session = Session(kb, durable=self.directory, trace=trace)
        self.plan = inputs.mutate_plan(seed, 20_000)
        self.rng = self.write_rng(seed)
        self.acked = 0
        self.inserts = 0
        self.deletes = 0
        self.checked = 0
        self.failures: list[str] = []
        for read in sorted({read for _, read in self.plan[:200]}):
            self.session.query(read)

    @staticmethod
    def write_rng(seed: int) -> random.Random:
        """The random stream the run's writes are chosen with."""
        return random.Random(f"{seed}:mutate_rows")

    def step(self, index: int) -> dict:
        """One write and one read; choosing and recording the write, and
        the oracle sample, are harness work and reported as paused."""
        start = cpu_clock()
        kind, read = self.plan[index]
        kb = self.session.kb
        predicate, row = self.shadow.choose(kind, self.rng)
        began, began_wall = cpu_clock(), time.perf_counter()
        if kind.endswith("insert"):
            args = ", ".join(inputs.literal(value) for value in row)
            self.session.query(f"{predicate}({args}).")
            self.inserts += 1
        else:
            with kb.transaction() as tx:
                tx.touch(predicate)
                if not kb.relation(predicate).delete(row):
                    raise RuntimeError(f"delete of a stored row failed: {predicate}{row}")
            self.deletes += 1
        wrote_wall = time.perf_counter()
        wrote = cpu_clock()
        self.acked += 1
        result = self.session.query(read)
        done = cpu_clock()
        self.shadow.apply(kind, row)
        if not self.trace and index % self.CHECK_EVERY == self.CHECK_EVERY // 2:
            expected = canonical(_reference(kb).query(read))
            self.checked += 1
            if canonical(result) != expected:
                self.failures.append(f"op {index}: {read} after {kind}: differs from the oracle")
        paused = began - start + cpu_clock() - done
        return {"write": wrote_wall - began_wall, "read": done - wrote, "paused": paused}

    def check(self) -> tuple[int, list[str]]:
        """Oracle samples from the loop, then cold recovery of the directory."""
        from repro import Session

        began = time.perf_counter()
        recovered = Session(durable=self.directory, cache=False)
        self.recover_s = time.perf_counter() - began
        failures = list(self.failures)
        live, back = _fact_sets(self.session.kb), _fact_sets(recovered.kb)
        if live != back:
            failures.append("recovered directory differs from the acknowledged writes")
        recovered.kb.durability.log.close()
        return self.checked + 1, failures

    def disk_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory)
        )

    def describe_inputs(self) -> dict:
        from repro.engine.viewcache import DEFAULT_MAX_STATEMENTS

        kb = self.session.kb
        return {
            "facts": kb.fact_count(),
            "rules": kb.rule_count(),
            "edges": len(kb.relation("edge").rows()),
            "components": inputs.COMPONENTS,
            "write_mix": inputs.MUTATE_MIX,
            "insert_share": 0.5,
            "delete_share": 0.5,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "distinct_reads": len({read for _, read in self.plan}),
            "statement_memo_entries": DEFAULT_MAX_STATEMENTS,
            "flush_policy": "fsync per committed write",
        }

    def close(self) -> None:
        durability = self.session.kb.durability
        if durability is not None:
            durability.log.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _fact_sets(kb) -> dict:
    return {
        name: {tuple(repr(c.value) for c in row) for row in kb.facts(name)}
        for name in kb.edb_predicates()
    }


IN_PROCESS = {
    workload.name: workload for workload in (RetrieveCold, KnowledgeCold, MutateRequery)
}

"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest -q dbkbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from dbkbench import common, inputs, measure, served, spec, tracing  # noqa: E402
from dbkbench.inproc import KnowledgeCold, MutateRequery, RetrieveCold  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    """Run the benchmark command for one second; returns (returncode, stdout lines)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        command = json.load(handle)["command"]
    completed = subprocess.run(
        [sys.executable if part == "python3" else part for part in command]
        + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed.returncode, completed.stdout.splitlines()


class TestBenchmarkJson:
    def test_file_is_generated_from_the_catalogue(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            assert json.load(handle) == spec.benchmark_json()

    def test_contract_limits(self):
        document = spec.benchmark_json()
        assert set(document) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert 2 <= len(document["workloads"]) <= 8
        assert 1 <= len(document["end_to_end"]) <= 16
        assert 1 <= len(document["per_layer"]) <= 128
        assert 1 <= document["run_seconds"] <= 60
        names = [w["name"] for w in document["workloads"]]
        names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for workload in document["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        for metric in document["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in document["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        assert all(UNIT.match(m["unit"]) for m in document["end_to_end"] + document["per_layer"])
        setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])

    def test_every_layer_metric_names_what_it_should_move(self):
        gated = {name for name, *_ in spec.END_TO_END}
        specific = {name for name, *_ in spec.WORKLOAD_SPECIFIC}
        workloads = set(spec.WORKLOADS)
        own = {name for name, *_ in spec.LAYER if name.startswith("trace.")}
        for name, *_ in spec.LAYER:
            if name in own:
                continue
            moves, where = spec.MOVES[name]
            assert moves in gated | specific
            assert set(where) <= workloads


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    code, lines = run_benchmark(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    wanted = document["end_to_end"] if trace == 0 else document["per_layer"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted
    }
    if trace == 0:
        assert all(value["value"] > 0 for value in result["metrics"].values())


class TestSeededInputs:
    def test_one_seed_gives_identical_inputs(self):
        def snapshot(seed):
            kbs, cycles = inputs.retrieve_cold(seed)
            knowledge_kbs, knowledge_cycles = inputs.knowledge_cold(seed)
            return (
                {name: sorted(map(str, kb.facts("edge"))) for name, kb in kbs.items() if kb.has_predicate("edge")},
                cycles,
                {name: [str(r) for r in kb.rules()] for name, kb in knowledge_kbs.items()},
                knowledge_cycles,
                sorted(map(str, inputs.mutate_kb(seed)[0].facts("complete"))),
                mutate_writes(seed, 100),
                inputs.mutate_plan(seed, 200),
                inputs.served_program(seed),
                inputs.served_statements(seed),
            )

        assert snapshot(7) == snapshot(7)
        assert snapshot(7) != snapshot(8)

    def test_mutate_mix_is_half_inserts(self):
        plan = inputs.mutate_plan(5, 2000)
        inserts = sum(1 for kind, _ in plan if kind.endswith("insert"))
        assert inserts == 1000

    def test_served_key_space_exceeds_the_statement_memo(self):
        keys = inputs.served_statements(5)
        assert len(set(keys)) == len(keys) > 10 * 256


def mutate_writes(seed: int, count: int) -> list[tuple[str, tuple]]:
    """The first *count* writes of ``mutate_requery``, chosen and recorded
    the way the run does, without the program."""
    _, shadow = inputs.mutate_kb(seed)
    rng = MutateRequery.write_rng(seed)
    writes = []
    for kind, _ in inputs.mutate_plan(seed, count):
        predicate, row = shadow.choose(kind, rng)
        shadow.apply(kind, row)
        writes.append((predicate, row))
    return writes


def test_the_write_shadow_matches_the_stored_rows(tmp_path):
    """Every write chosen from the shadow reached the program's storage."""
    workload = MutateRequery(3, str(tmp_path))
    try:
        for index in range(40):
            workload.step(index)
        shadow, kb = workload.shadow, workload.session.kb

        def stored(predicate):
            return sorted(tuple(c.value for c in row) for row in kb.facts(predicate))

        assert stored("complete") == shadow.complete
        assert stored("edge") == sorted(row for rows in shadow.edges.values() for row in rows)
    finally:
        workload.close()


def test_one_seed_gives_identical_deterministic_counts(tmp_path):
    def counts():
        retrieve = RetrieveCold(3, str(tmp_path), trace=True)
        recorder = tracing.Recorder()
        measure.traced_loop(retrieve, recorder, 5)
        layer = tracing.layer_metrics(recorder, 5, 0)
        mutate = MutateRequery(3, str(tmp_path))
        try:
            common.ClosedLoop().run(mutate.step, ops=30)
            disk = mutate.disk_bytes() / mutate.acked
        finally:
            mutate.close()
        return layer["engine.answer_rows"], layer["engine.facts_derived"], disk

    first, second = counts(), counts()
    assert first == second
    assert all(value > 0 for value in first)


class TestSpeedProbe:
    def test_scale_is_the_reference_over_the_nearby_median(self):
        probe = common.SpeedProbe()
        reference = common.PROBE_REFERENCE_MS / 1000
        probe.readings = [reference] * 6 + [reference / 2] * 6
        assert probe.scale(0) == probe.scale(3) == 1.0
        assert probe.scale(9) == probe.scale(12) == 2.0

    def test_loop_times_are_scaled_by_the_probe(self):
        loop = common.ClosedLoop()
        loop.run(lambda index: {"read": 0.01}, ops=4)
        scales = [loop.probe.scale(position) for position, *_ in loop._ops]
        assert loop.reads == pytest.approx([0.01 * scale for scale in scales])
        assert len(loop.probe.readings) >= 2 * common.PROBE_WINDOW


class TestFailuresAreCounted:
    def test_a_wrong_answer_counts_as_a_failed_operation(self, tmp_path):
        workload = KnowledgeCold(3, str(tmp_path))
        loop = common.ClosedLoop()
        loop.run(workload.step, ops=len(workload.sample))
        _, failures, failed = measure._checked(loop, workload)
        assert (failures, failed) == ([], 0)
        index = min(workload.answers)
        workload.answers[index] = "a deliberately wrong answer"
        _, failures, failed = measure._checked(loop, workload)
        assert failed == 1 and len(failures) == 1

    def test_an_operation_that_raises_counts_as_failed(self):
        loop = common.ClosedLoop()

        def step(index):
            if index == 1:
                raise RuntimeError("refused")
            return {"read": 0.001}

        loop.run(step, ops=3)
        assert (loop.attempted, loop.failed) == (3, 1)

    def test_a_wrong_served_answer_is_reported(self):
        stack = served.ServedStack(inputs.served_program(3), served.Traffic(3))
        try:
            loop = common.ClosedLoop()
            loop.run(stack.step, ops=3 * stack.CHECK_EVERY)
            checked, failures = stack.check()
            assert checked >= 2 and failures == []
            position, statement, response = stack.samples[-1]
            answer = json.loads(response)
            answer["result"]["rows"] = [["a deliberately wrong row"]]
            stack.samples[-1] = (position, statement, json.dumps(answer).encode())
            assert len(stack.check()[1]) == 1
        finally:
            stack.close()

    @pytest.mark.parametrize("status", [429, 408, 500, 0])
    def test_a_refused_or_failed_request_counts_as_failed(self, status):
        records = [
            {"kind": "read", "status": 200, "body": "{}", "payload": b"{}"},
            {"kind": "read", "status": status, "body": "{}", "payload": b"{}"},
        ]
        failed, failures = served.classify(records)
        assert failed == 1 and str(status) in failures[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "dbkbench"), tmp_path / "dbkbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "dbkbench/run.py", "--workload", "retrieve_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout

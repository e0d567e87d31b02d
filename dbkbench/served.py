"""The served workload: the server's request path, then ``dbk serve`` over HTTP.

An untraced run drives the server's own request path from one client in
this process, back to back (a closed loop): admission guard,
``SessionPool.query_sync`` on a pinned snapshot, ``result_payload`` and
the JSON body for a read; ``MultiVersionCatalog.commit`` and snapshot
publication, through a writer session, for a commit.  Its requests per
second of busy time are the throughput, and its reads and commits give
the read and write latencies.  It then starts ``dbk serve`` five times
for ``setup_s``.

A traced run offers a ``dbk serve`` subprocess Poisson arrivals at a few
fixed rates over keep-alive HTTP connections (an open loop), each request
timed from when it was due, so one that waits for a free connection or
behind a slow one is charged that wait.  The read p95 at each rate decides
the sustained rate: the offered rate at which p95 crosses ``LIMIT_MS``,
interpolated between the two rates that straddle it.  The lowest rate is
then offered to an untraced and a traced server for the layer metrics.

The gated figures leave out the HTTP transport because a request that
crosses threads or processes waits for a parked core to be woken, and on
a shared 2-vCPU machine that wait follows the host's load: ten seeds over
HTTP spread by 0.39-0.52 of their median in throughput and read latency,
and the machine lost four to eight times more CPU time to the host than
with the same loop in one thread.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from dbkbench import common, inputs, spec, tracing

#: Requests sent to the closed loop's fresh stack before it is timed.
WARM_UP = 200
#: Offered rates (requests per second), lowest first.  Stepping stops at
#: the first rate that misses the limit.  The traced run offers the lowest.
RATES = [100, 160, 200, 240, 280]
#: The latency limit on read p95 that defines the sustained rate.
LIMIT_MS = 100.0
POOL_SIZE = 2
#: Keep-alive connections of the open loop.
CONNECTIONS = 2
#: One request in 16 is a commit.  Each commit publishes a snapshot, and
#: the first ``honor(sK)`` read on it materializes the ``honor`` view
#: (~10-20 ms against ~1-5 ms for other reads), so the share of those
#: reads follows the commit share.  At one commit in 20 they were 5.2% of
#: reads and read p95 sat on the edge between the two classes, moving by
#: a third of its median from seed to seed; at one in 16 (6.7% of reads)
#: p95 falls inside the view-building class.
COMMIT_SHARE = 1 / 16
ZIPF_EXPONENT = 1.0
#: Every this-many-th read is compared with in-process evaluation.
SAMPLE_EVERY = 10
SETUPS = 5


class Server:
    """One ``dbk serve`` subprocess started through the launcher."""

    def __init__(self, root: str, program: str, workdir: str, spans: str | None = None) -> None:
        command = [sys.executable, "-u", os.path.join(root, "dbkbench", "launcher.py")]
        if spans is not None:
            command += ["--spans", spans]
        command += [
            "--", "serve", "--load", program, "--port", "0",
            "--pool-size", str(POOL_SIZE), "--no-trace",
        ]
        self.started = time.perf_counter()
        self._stderr = open(os.path.join(workdir, f"server-{time.perf_counter_ns()}.err"), "w")
        self.process = subprocess.Popen(
            command, cwd=root, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started
        #: CPU seconds ``dbk serve`` used from its start until ``/healthz``
        #: answered, at the reference speed of the server's own core.
        cpu_s = common.process_cpu_s(self.process.pid) - self.launcher_cpu_s
        self.ready_cpu_s = cpu_s * common.PROBE_REFERENCE_MS / self.probe_ms

    def _read_port(self) -> int:
        for line in self.process.stdout:
            if line.startswith("dbkbench launcher: "):
                fields = dict(field.split("=") for field in line.split()[2:])
                self.launcher_cpu_s = float(fields["cpu_s"])
                self.probe_ms = float(fields["probe_ms"])
            elif line.startswith("dbk serve: http://"):
                return int(line.split()[2].rsplit(":", 1)[1])
        raise RuntimeError("the server exited before binding a port")

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("the server did not answer /healthz within 60 s")

    def get(self, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        """Drain through SIGINT and wait for the process to end (idempotent)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class Traffic:
    """The seeded request stream: Zipf-keyed reads and one-fact commits.

    Commits are stratified: each block of ``BLOCK`` requests holds exactly
    one, at a seeded position, so every stretch of a run carries the same
    share of commits (and of the session rebuilds they cause).
    """

    BLOCK = round(1 / COMMIT_SHARE)

    def __init__(self, seed: int) -> None:
        self.keys = inputs.served_statements(seed)
        self.rng = random.Random(f"{seed}:served_traffic")
        self.draw = inputs.zipf_sampler(len(self.keys), ZIPF_EXPONENT, self.rng)
        self.commits = 0
        self.kinds: list[str] = []

    def _kind(self) -> str:
        if not self.kinds:
            self.kinds = ["commit"] + ["read"] * (self.BLOCK - 1)
            self.rng.shuffle(self.kinds)
        return self.kinds.pop()

    def next_request(self) -> tuple[str, str]:
        """The next request as ``(kind, JSON body)``."""
        if self._kind() == "commit":
            self.commits += 1
            fact = f"enroll(new{self.commits}, {self.rng.choice(inputs.COURSES)})."
            return "commit", json.dumps({"statements": [fact]})
        return "read", json.dumps({"statement": self.keys[self.draw()]})

    def schedule(self, rate: float, seconds: float) -> list[tuple[float, str, str]]:
        """Arrival offsets and requests ``(offset, kind, body)`` for one rate."""
        plan = []
        offset = self.rng.expovariate(rate)
        while offset < seconds:
            plan.append((offset, *self.next_request()))
            offset += self.rng.expovariate(rate)
        return plan


class ServedStack:
    """The server's request path in this process, without the HTTP transport.

    The knowledge base is loaded the way ``dbk serve --load`` loads it;
    :meth:`step` does what ``KnowledgeServer`` does for one ``/query`` or
    ``/commit`` request on its reader pool or writer thread.
    """

    #: One read in this many is compared with a fresh session after the run.
    CHECK_EVERY = 25

    def __init__(self, text: str, traffic: Traffic) -> None:
        from repro import Session
        from repro.server.catalog import MultiVersionCatalog
        from repro.server.pool import SessionPool
        from repro.server.qos import TierState, default_tiers

        self.text = text
        self.catalog = MultiVersionCatalog(kb=_empty_kb())
        Session(self.catalog.kb, cache=False, plan_cache=False).load(text)
        self.catalog.republish()
        self.pool = SessionPool(size=POOL_SIZE, trace=False)
        self.tier = TierState(default_tiers(POOL_SIZE)["interactive"])
        self.writer = Session(self.catalog.kb, cache=False, plan_cache=False)
        self.traffic = traffic
        #: The statements of every commit, in order.
        self.commits: list[list[str]] = []
        #: Sampled reads: (commits made before it, statement, response body).
        #: Only text is kept, so no snapshot outlives its requests and the
        #: check shares no cache with the measured path.
        self.samples: list[tuple[int, str, bytes]] = []

    def step(self, index: int) -> dict:
        """One request; drawing it and keeping a sample are harness work
        and reported as paused."""
        from repro.lang.parser import parse_statement
        from repro.server.protocol import result_payload

        start = common.cpu_clock()
        kind, body = self.traffic.next_request()
        request = json.loads(body)
        began, began_wall = common.cpu_clock(), time.perf_counter()
        if kind == "commit":
            statements = [parse_statement(text) for text in request["statements"]]
            self.catalog.commit(lambda kb: [str(self.writer.execute(s)) for s in statements])
            done_wall = time.perf_counter()
            done = common.cpu_clock()
            self.commits.append(request["statements"])
            return {
                "write": done_wall - began_wall,
                "paused": began - start + common.cpu_clock() - done,
            }
        snapshot = self.catalog.current
        outcome = self.pool.query_sync(
            snapshot, request["statement"], guard=self.tier.fresh_guard()
        )
        result_kind, payload = result_payload(outcome.result)
        response = json.dumps(
            {
                "ok": True,
                "snapshot": {"id": snapshot.snapshot_id, "token": snapshot.token},
                "kind": result_kind,
                "result": payload,
            }
        ).encode("utf-8")
        done = common.cpu_clock()
        if index % self.CHECK_EVERY == 0:
            self.samples.append((len(self.commits), request["statement"], response))
        return {"read": done - began, "paused": began - start + common.cpu_clock() - done}

    def check(self) -> tuple[int, list[str]]:
        """Replay the commits on a replica; every sampled read must name the
        replica's snapshot token at that point and equal a fresh session's
        answer on it."""
        from repro import Session
        from repro.lang.parser import parse_statement
        from repro.server.catalog import MultiVersionCatalog

        replica = MultiVersionCatalog(kb=_empty_kb())
        Session(replica.kb, cache=False, plan_cache=False).load(self.text)
        replica.republish()
        writer = Session(replica.kb, cache=False, plan_cache=False)
        failures, applied = [], 0
        for position, statement, response in self.samples:
            for texts in self.commits[applied:position]:
                statements = [parse_statement(text) for text in texts]
                replica.commit(lambda kb: [writer.execute(s) for s in statements])
            applied = max(applied, position)
            answer = json.loads(response)
            if answer["snapshot"]["token"] != replica.current.token:
                failures.append(f"{statement}: snapshot {answer['snapshot']} is not the replica's")
            elif not _same_answer(replica.current, statement, answer):
                failures.append(f"{statement}: answer differs on snapshot {answer['snapshot']}")
        replica.close()
        return len(self.samples), failures

    def close(self) -> None:
        self.pool.shutdown()
        self.catalog.close()


class Generator:
    """Open-loop sender: a scheduler thread plus one thread per connection."""

    def __init__(self, port: int) -> None:
        self.port = port

    def run(self, plan: list[tuple[float, str, str]], sample: bool) -> dict:
        """Send *plan*; returns the step's records and backlog."""
        work: queue.Queue = queue.Queue()
        records: list[dict] = []
        workers = [
            threading.Thread(target=self._worker, args=(work, records), daemon=True)
            for _ in range(CONNECTIONS)
        ]
        for worker in workers:
            worker.start()
        start = time.perf_counter() + 0.01
        lateness = []
        for index, (offset, kind, body) in enumerate(plan):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            dispatched = time.perf_counter()
            lateness.append(dispatched - due)
            work.put((index, due, kind, body, sample and kind == "read" and index % SAMPLE_EVERY == 0))
        backlog = work.qsize()
        for _ in workers:
            work.put(None)
        for worker in workers:
            worker.join(timeout=120)
        return {"records": records, "backlog": backlog, "lateness": lateness}

    def _worker(self, work: queue.Queue, records: list[dict]) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                index, due, kind, body, keep = item
                path = "/query" if kind == "read" else "/commit"
                sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", path, body, {"Content-Type": "application/json"}
                    )
                    response = connection.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as error:
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                    payload, status = str(error).encode(), 0
                done = time.perf_counter()
                record = {
                    "index": index, "kind": kind, "status": status,
                    "due": due, "sent": sent, "done": done,
                }
                if kind == "commit" or keep or status != 200:
                    record["body"] = body
                    record["payload"] = payload
                records.append(record)
        finally:
            connection.close()


def classify(records: list[dict]) -> tuple[int, list[str]]:
    """Failed requests (any status but 200) and their descriptions."""
    failures = []
    for record in records:
        if record["status"] != 200:
            failures.append(
                f"{record['kind']} {record.get('body', '')}: status {record['status']} "
                f"{record.get('payload', b'')[:120]!r}"
            )
    return len(failures), failures


def sustained_rate(steps: list[dict]) -> tuple[float, bool]:
    """The offered rate where read p95 crosses the limit; (rate, crossed)."""
    previous = None
    for step in steps:
        failing = step["read_p95_ms"] > LIMIT_MS or step["backlog_grew"]
        if failing:
            if previous is None:
                return step["rate"] * LIMIT_MS / max(step["read_p95_ms"], LIMIT_MS), True
            low, high = previous, step
            high_p95 = max(high["read_p95_ms"], LIMIT_MS)
            share = (LIMIT_MS - low["read_p95_ms"]) / (high_p95 - low["read_p95_ms"])
            return low["rate"] + share * (high["rate"] - low["rate"]), True
        previous = step
    return steps[-1]["rate"], False


# -- correctness -----------------------------------------------------------------------------


def check_responses(program_path: str, initial_token: str, records: list[dict]) -> tuple[int, list[str]]:
    """Replay the commits in process and compare sampled reads snapshot by snapshot.

    The replica loads the same file the way ``dbk serve --load`` does and
    applies the acknowledged commits in the order the server published
    them; every commit's snapshot token must match, and every sampled read
    must equal in-process evaluation on the snapshot its response names.
    """
    from repro import Session
    from repro.lang.parser import parse_statement
    from repro.server.catalog import MultiVersionCatalog

    failures = []
    catalog = MultiVersionCatalog(kb=_empty_kb())
    with open(program_path) as handle:
        Session(catalog.kb, cache=False, plan_cache=False).load(handle.read())
    catalog.republish()
    if catalog.current.token != initial_token:
        failures.append(f"initial snapshot token {initial_token} != replica {catalog.current.token}")
    snapshots = {catalog.current.token: catalog.current}
    writer = Session(catalog.kb, cache=False, plan_cache=False)
    commits = []
    for record in records:
        if record["kind"] == "commit" and record["status"] == 200:
            answer = json.loads(record["payload"])
            commits.append((answer["snapshot"]["id"], answer["snapshot"]["token"], record["body"]))
    for snapshot_id, token, body in sorted(commits):
        statements = [parse_statement(text) for text in json.loads(body)["statements"]]
        _, snapshot = catalog.commit(lambda kb: [writer.execute(s) for s in statements])
        if snapshot.token != token:
            failures.append(f"commit {snapshot_id}: token {token} != replica {snapshot.token}")
        snapshots[snapshot.token] = snapshot
    checked = 0
    for record in records:
        if record["kind"] != "read" or "payload" not in record or record["status"] != 200:
            continue
        answer = json.loads(record["payload"])
        snapshot = snapshots.get(answer["snapshot"]["token"])
        statement = json.loads(record["body"])["statement"]
        checked += 1
        if snapshot is None:
            failures.append(f"{statement}: unknown snapshot {answer['snapshot']}")
            continue
        if not _same_answer(snapshot, statement, answer):
            failures.append(f"{statement}: served answer differs on snapshot {answer['snapshot']}")
    catalog.close()
    return checked, failures


def _same_answer(snapshot, statement: str, answer: dict) -> bool:
    """Whether a response *answer* equals in-process evaluation on *snapshot*."""
    from repro import Session
    from repro.server.protocol import result_payload

    kind, payload = result_payload(Session(snapshot.kb, cache=False).query(statement))
    expected = _comparable(json.loads(json.dumps(payload)))
    return (kind, expected) == (answer["kind"], _comparable(answer["result"]))


def _empty_kb():
    from repro.catalog.database import KnowledgeBase

    return KnowledgeBase("interactive")


def _comparable(payload: object) -> object:
    """A payload without its budget report, with row and rule order ignored.

    The server runs reads under its tier's guard, so its payloads carry
    consumed budgets that in-process evaluation does not; an answer the
    guard degraded is marked incomplete and compares unequal.
    """
    if isinstance(payload, dict):
        diagnostics = payload.get("diagnostics")
        return {
            key: sorted(json.dumps(_numeric(item)) for item in value)
            if key in ("rows", "rules")
            else _comparable(value)
            for key, value in payload.items()
            if key != "diagnostics"
        } | {"complete": diagnostics is None or diagnostics.get("complete", False)}
    return payload


def _numeric(item: object) -> object:
    """Numbers as floats: ``3`` and ``3.0`` are one constant to the program,
    rendered as whichever form the process interned first."""
    if isinstance(item, list):
        return [_numeric(value) for value in item]
    if isinstance(item, (int, float)) and not isinstance(item, bool):
        return float(item)
    return item


# -- runs ---------------------------------------------------------------------------------------


def _latencies(records: list[dict], kind: str) -> list[float]:
    """Seconds from due to answered, for the answered requests of one kind."""
    return [r["done"] - r["due"] for r in records if r["kind"] == kind and r["status"] == 200]


def _tier_counts(stats: dict) -> tuple[int, int]:
    tiers = stats.get("tiers", {}).values()
    return sum(t.get("rejected", 0) for t in tiers), sum(t.get("timed_out", 0) for t in tiers)


def run_served(args, root: str, workdir: str, outdir: str) -> dict:
    from repro.engine.viewcache import DEFAULT_MAX_STATEMENTS

    program = os.path.join(workdir, "served.dbk")
    text = inputs.served_program(args.seed)
    with open(program, "w") as handle:
        handle.write(text)
    traffic = Traffic(args.seed)
    inputs_report = {
        "facts": sum(1 for line in text.splitlines() if "<-" not in line),
        "rules": sum(1 for line in text.splitlines() if "<-" in line),
        "distinct_statements": len(traffic.keys),
        "statement_memo_entries": DEFAULT_MAX_STATEMENTS,
        "key_space_over_memo": len(traffic.keys) / DEFAULT_MAX_STATEMENTS,
        "zipf_exponent": ZIPF_EXPONENT,
        "commit_share": COMMIT_SHARE,
        "insert_share": 1.0,
        "delete_share": 0.0,
    }
    meta = {"server_pool_size": POOL_SIZE}
    if args.trace:
        return _traced(args, root, workdir, outdir, program, traffic, inputs_report, meta)

    stack = ServedStack(text, traffic)
    loop = common.ClosedLoop()
    try:
        common.ClosedLoop().run(stack.step, ops=WARM_UP)
        stack.samples.clear()
        completed = loop.run(stack.step, seconds=args.seconds)
        peak = common.peak_rss_mb()
        checked, wrong = stack.check()
    finally:
        stack.close()
    stack = None

    setups = []
    for _ in range(SETUPS):
        server = Server(root, program, workdir)
        try:
            setups.append(server.ready_cpu_s)
            status, _ = server.get("/healthz")
        finally:
            server.stop()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status} after start-up")
    reads = common.latency_summary(loop.reads)
    writes = common.latency_summary(loop.writes)
    report = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": completed / loop.busy_s,
        "read_p50_ms": reads["p50_ms"],
        "read_p95_ms": reads["p95_ms"],
        "peak_rss_mb": peak,
        **{name: 0.0 for name, *_ in spec.WORKLOAD_SPECIFIC},
        "write_p50_ms": writes["p50_ms"],
        "write_p95_ms": writes["p95_ms"],
        "failed_share": (loop.failed + len(wrong)) / max(loop.attempted, 1),
    }
    return {
        "meta": {
            **meta,
            "client": "one in-process client on the server's request path, closed loop",
            "server_ready_wall_s": server.ready_s,
            **loop.probe_meta(),
        },
        "inputs": {**inputs_report, "closed_loop_seconds": args.seconds},
        "report": report,
        "samples": {
            "read_p50_ms": reads["n"], "read_p95_ms": reads["n"],
            "write_p50_ms": writes["n"], "write_p95_ms": writes["n"],
        },
        "notes": [
            f"closed loop: {completed} requests busy_s={loop.busy_s:.3f} "
            f"busy_cpu_s={loop.busy_cpu_s:.3f} "
            f"busy_wall_s={loop.wall_s:.3f} commits={len(loop.writes)} "
            f"checked_answers={checked} wrong_answers={len(wrong)}"
        ],
        "failures": loop.errors + wrong,
        "attempted": loop.attempted,
        "failed": loop.failed + len(wrong),
    }


def _stepped(server: Server, traffic: Traffic, seconds: float, program: str) -> dict:
    """Offer *server* each rate in ``RATES`` for *seconds* until read p95
    crosses the limit; the sustained rate, lateness and checked answers."""
    _, snapshot = server.get("/snapshot")
    initial_token = snapshot["snapshot"]["token"]
    generator = Generator(server.port)
    warm_up = generator.run(traffic.schedule(RATES[0], 1.0), sample=False)["records"]
    steps, records, lateness = [], [], []
    for rate in RATES:
        outcome = generator.run(traffic.schedule(rate, seconds), sample=True)
        step_records = outcome["records"]
        reads = common.latency_summary(_latencies(step_records, "read"))
        steps.append(
            {
                "rate": rate,
                "read_p50_ms": reads["p50_ms"],
                "read_p95_ms": reads["p95_ms"],
                "reads": reads["n"],
                "backlog": outcome["backlog"],
                "backlog_grew": outcome["backlog"] > max(4, 0.05 * len(step_records)),
            }
        )
        records += step_records
        lateness += outcome["lateness"]
        if steps[-1]["read_p95_ms"] > LIMIT_MS or steps[-1]["backlog_grew"]:
            break
    failed, failures = classify(records)
    checked, wrong = check_responses(program, initial_token, warm_up + records)
    sustained, crossed = sustained_rate(steps)
    passing = [s["rate"] for s in steps if s["read_p95_ms"] <= LIMIT_MS and not s["backlog_grew"]]
    return {
        "sustained_rps": sustained,
        "lateness": lateness,
        "attempted": len(records),
        "failed": failed + len(wrong),
        "failures": failures + wrong,
        "notes": [
            f"rate {s['rate']}/s: read p50 {s['read_p50_ms']:.3f} ms p95 {s['read_p95_ms']:.3f} ms "
            f"(n={s['reads']}) backlog {s['backlog']}{' growing' if s['backlog_grew'] else ''}"
            for s in steps
        ]
        + [
            f"sustained rate {'crossed' if crossed else 'not crossed, capped at the top rate'}; "
            f"passing rates {passing}",
            f"http checked_answers={checked} wrong_answers={len(wrong)}",
        ],
    }


def _traced(args, root, workdir, outdir, program, traffic, inputs_report, meta) -> dict:
    """Rate stepping over HTTP, then the lowest rate untraced and traced.

    Half of the run steps an untraced server through ``RATES`` for
    ``sustained_rps`` and the generator's lateness; each quarter that
    follows offers the same requests at the lowest rate, to an untraced
    and then a traced server, for the layer metrics and the overhead.
    """
    step_seconds = args.seconds / 2 / len(RATES)
    server = Server(root, program, workdir)
    try:
        stepped = _stepped(server, traffic, step_seconds, program)
        server_peak = server.peak_rss_mb()
    finally:
        server.stop()
    plan = traffic.schedule(RATES[0], args.seconds / 4)
    warm = traffic.schedule(RATES[0], 1.0)
    outcomes = {}
    spans = os.path.join(outdir, f"spans-served_mixed-seed{args.seed}.json")
    stats = {}
    for label, spans_path in (("plain", None), ("traced", spans)):
        server = Server(root, program, workdir, spans=spans_path)
        try:
            generator = Generator(server.port)
            generator.run(warm, sample=False)
            _, before = server.get("/stats")
            outcomes[label] = generator.run(plan, sample=False)
            _, after = server.get("/stats")
            stats[label] = (before, after)
        finally:
            server.stop()
    recorder = tracing.Recorder.load(spans)
    records = outcomes["traced"]["records"]
    requests = len(records)
    report = {name: 0.0 for name, *_ in spec.WORKLOAD_SPECIFIC}
    plain_records = outcomes["plain"]["records"]
    failed, failures = classify(plain_records + records)
    attempted = stepped["attempted"] + len(plain_records) + requests
    failed += stepped["failed"]
    report["failed_share"] = failed / max(attempted, 1)
    writes = common.latency_summary(_latencies(plain_records, "commit"))
    report["write_p50_ms"] = writes["p50_ms"]
    report["write_p95_ms"] = writes["p95_ms"]
    report["sustained_rps"] = stepped["sustained_rps"]
    lateness = stepped["lateness"]
    report["generator_late_p95_ms"] = common.percentile(lateness, 0.95) * 1000 if lateness else 0.0
    # Keep the spans of the measured window only: the warm-up and the
    # /stats calls are requests too, but not measured ones.  Both processes
    # read the same monotonic clock.
    first = min(r["sent"] for r in records)
    last = max(r["done"] for r in records)
    recorder.window = (first, last)
    report.update(tracing.layer_metrics(recorder, requests, 0))
    service = [r["done"] - r["sent"] for r in records if r["status"] == 200]
    plain_service = [r["done"] - r["sent"] for r in plain_records if r["status"] == 200]
    mean_ms = statistics.mean(service) * 1000 if service else 0.0
    plain_mean_ms = statistics.mean(plain_service) * 1000 if plain_service else 0.0
    report["server.overhead_ms"] = mean_ms - report["server.pool_ms"] - report["server.encode_ms"]
    before, after = stats["traced"]
    commits = after["catalog"]["commits"] - before["catalog"]["commits"]
    builds = after["pool"]["session_builds"] - before["pool"]["session_builds"]
    report["server.session_builds_per_commit"] = builds / commits if commits else 0.0
    rejected, timed_out = _tier_counts(after)
    report["server.rejected"] = float(rejected)
    report["server.timed_out"] = float(timed_out)
    report["trace.overhead_ratio"] = mean_ms / plain_mean_ms if plain_mean_ms else 0.0
    report["trace.base_ms_per_op"] = plain_mean_ms
    report["trace.unattributed_share"] = (
        1 - tracing.attributed_seconds(recorder) / sum(service) if service else 0.0
    )
    return {
        "meta": {
            **meta,
            "connections": CONNECTIONS,
            "client": "one generator process, Poisson arrivals over HTTP, open loop",
            "generator_late_max_ms": max(lateness, default=0.0) * 1000,
            "server_peak_rss_mb": server_peak,
            "spans": os.path.relpath(spans, os.path.dirname(outdir)),
        },
        "inputs": {
            **inputs_report,
            "rates": RATES,
            "seconds_per_rate": step_seconds,
            "limit_ms": LIMIT_MS,
            "traced_rate": RATES[0],
        },
        "report": report,
        "notes": stepped["notes"]
        + [
            f"rate {RATES[0]}/s requests={requests} commits={commits} session_builds={builds} "
            f"spans={len(recorder.spans)}",
            "self_ms_by_layer "
            + " ".join(
                f"{layer}={seconds * 1000 / max(requests, 1):.4f}"
                for layer, seconds in sorted(recorder.self_times(by_layer=True).items())
            ),
        ],
        "failures": stepped["failures"] + failures,
        "attempted": attempted,
        "failed": failed,
    }

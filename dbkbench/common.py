"""Measurement helpers shared by every workload: loops, percentiles, metadata."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time


def percentile(values: list[float], fraction: float) -> float:
    """The *fraction* quantile of *values*, interpolating between samples."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(seconds: list[float]) -> dict:
    """p50/p95 in milliseconds plus the sample count and samples beyond p95."""
    if not seconds:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "n": 0, "beyond_p95": 0}
    millis = [value * 1000 for value in seconds]
    return {
        "p50_ms": percentile(millis, 0.5),
        "p95_ms": percentile(millis, 0.95),
        "n": len(millis),
        "beyond_p95": len(millis) - int(0.95 * len(millis)),
    }


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds process *pid* has used (``/proc/PID/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def canonical(result: object) -> object:
    """A comparable, order-free rendering of any query result."""
    rows = getattr(result, "rows", None)
    if rows is not None and hasattr(result, "variables"):
        return sorted(tuple(repr(c.value) for c in row) for row in rows)
    if isinstance(result, dict):
        return {key: canonical(value) for key, value in sorted(result.items())}
    answers = getattr(result, "answers", None)
    if answers is not None:
        return sorted(str(answer) for answer in answers)
    return str(result)


#: The clock gated times are read from: CPU time of the calling thread.
#: Every in-process workload runs its operations on one thread, so an
#: operation's CPU time is what it takes on the core it ran on.  Wall time
#: on the shared virtual machines this benchmark runs on also counts the
#: time the host gives to other tenants (``steal``); the kernel leaves
#: steal out of a thread's CPU time.  Blocking waits (``fsync``) do not
#: count either; write latencies, where that wait is the cost, are read
#: from the wall clock.
cpu_clock = time.thread_time

#: The probe time gated times are scaled to: they read as if measured on
#: a core where :func:`probe_work` takes this many CPU milliseconds.  A
#: shared 2-vCPU Intel Xeon virtual machine (Python 3.11.7) read ~1.45
#: with the neighbouring core idle and up to ~3.4 with it busy.
PROBE_REFERENCE_MS = 1.5
#: A closed loop reads the probe after every this-many CPU seconds of work.
PROBE_EVERY_S = 0.1
#: Probe readings on each side of an operation that set its scale.
PROBE_WINDOW = 3


class _Fact:
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple) -> None:
        self.name = name
        self.args = args

    def key(self) -> tuple:
        return (self.name, self.args)


def probe_work() -> int:
    """A fixed piece of pure-Python work shaped like the engine's inner
    loops: a hash index of integer pairs joined through and summed, then
    the same join over slotted objects with string arguments and method
    calls.  The two halves slow down by different amounts on a contended
    core (~1.6x and ~1.85x where the program's reads slowed ~1.65-1.8x);
    together they follow the program more closely than either alone."""
    rows = [(i % 211, (i * 7) % 211) for i in range(1200)]
    index: dict[int, list[int]] = {}
    for src, dst in rows:
        index.setdefault(src, []).append(dst)
    reached = set()
    for src, dst in rows[:240]:
        for far in index.get(dst, ()):
            reached.add((src, far))
    total = len(reached) + sum(value * value for value in range(12_000))
    facts = [_Fact("e", (f"n{i % 97}", f"n{(i * 7) % 97}")) for i in range(500)]
    by_source: dict[str, list[_Fact]] = {}
    for fact in facts:
        by_source.setdefault(fact.args[0], []).append(fact)
    derived = {}
    for fact in facts[:180]:
        for other in by_source.get(fact.args[1], ()):
            new = _Fact("p", (fact.args[0], other.args[1]))
            derived[new.key()] = new
    return total + len(derived)


class SpeedProbe:
    """How fast the core this process runs on is at the moment.

    CPU time still follows the host: a virtual core that shares a physical
    core (or its caches) with a busy neighbour does the same work in up to
    twice the CPU time, in stretches of seconds to minutes.  On a shared
    2-vCPU Intel Xeon virtual machine a fixed pure-Python loop read 6.2 ms
    and 8.9 ms in alternating stretches with the machine otherwise idle,
    and the program's reads took 1.7-2x as long in the slow stretches.
    The probe times :func:`probe_work` (which does not touch the program)
    between operations; :meth:`scale` turns CPU seconds measured near a
    reading into seconds at the reference speed (``PROBE_REFERENCE_MS``).
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    def measure(self) -> float:
        """Time one :func:`probe_work` (collector off) and record it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = cpu_clock()
            probe_work()
            elapsed = cpu_clock() - began
        finally:
            if enabled:
                gc.enable()
        self.readings.append(elapsed)
        return elapsed

    def scale(self, position: int) -> float:
        """The factor for work done between readings *position* - 1 and
        *position*: the reference time over the median of the
        ``PROBE_WINDOW`` readings on each side."""
        low = max(position - PROBE_WINDOW, 0)
        window = self.readings[low : position + PROBE_WINDOW]
        return PROBE_REFERENCE_MS / 1000 / statistics.median(window)

    def scaled(self, seconds: float) -> float:
        """*seconds* just measured, at the reference speed: brackets the
        measurement's position with ``PROBE_WINDOW`` fresh readings."""
        position = len(self.readings)
        for _ in range(PROBE_WINDOW):
            self.measure()
        return seconds * self.scale(position)


class ClosedLoop:
    """One client issuing operations back to back for a fixed time.

    ``step(index)`` performs operation *index* and returns the seconds its
    read and write parts took (``{"read": s, "write": s}``, either may be
    missing; reads in :data:`cpu_clock` seconds, writes in wall seconds);
    an exception counts the operation as failed.  Seconds it reports as
    ``"paused"`` (harness work: drawing the operation, correctness checks)
    are excluded from the busy time that throughput divides by.

    The loop reads a :class:`SpeedProbe` before the first operation,
    every ``PROBE_EVERY_S`` of busy CPU time and after the last, outside
    the busy time.  ``reads`` and ``busy_s`` are CPU seconds at the
    reference speed; ``busy_cpu_s`` and ``wall_s`` are the CPU and wall
    time of the same busy stretches as measured, for the report lines.  A
    run stops after *seconds* of busy time at the reference speed (scaled
    by the latest readings as it goes), so that a run does the same amount
    of work on a fast core as on a slow one, or at the latest after
    ``WALL_CAP`` times *seconds* in wall time.
    """

    WALL_CAP = 3.0

    def __init__(self) -> None:
        self.probe = SpeedProbe()
        self.writes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.busy_cpu_s = 0.0
        self.wall_s = 0.0
        #: (probe readings taken before it, busy CPU seconds, read seconds or None)
        self._ops: list[tuple[int, float, float | None]] = []

    def run(self, step, seconds: float | None = None, ops: int | None = None) -> int:
        """Run until *seconds* of busy time or *ops* operations; returns the count."""
        index = 0
        started = time.perf_counter()
        for _ in range(PROBE_WINDOW):
            self.probe.measure()
        since_probe, scale, done_s = 0.0, self.probe.scale(len(self.probe.readings)), 0.0
        while True:
            if ops is not None and index >= ops:
                break
            if seconds is not None and (
                done_s >= seconds or time.perf_counter() - started >= self.WALL_CAP * seconds
            ):
                break
            self.attempted += 1
            began, began_wall = cpu_clock(), time.perf_counter()
            try:
                parts = step(index)
            except Exception as error:  # noqa: BLE001 — a failed operation is data
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"op {index}: {type(error).__name__}: {error}")
                parts = {}
            paused = parts.get("paused", 0.0)
            busy = cpu_clock() - began - paused
            self.busy_cpu_s += busy
            self.wall_s += time.perf_counter() - began_wall - paused
            self._ops.append((len(self.probe.readings), busy, parts.get("read")))
            if "write" in parts:
                self.writes.append(parts["write"])
            done_s += busy * scale
            since_probe += busy
            if since_probe >= PROBE_EVERY_S:
                self.probe.measure()
                since_probe, scale = 0.0, self.probe.scale(len(self.probe.readings))
            index += 1
        for _ in range(PROBE_WINDOW):
            self.probe.measure()
        return index

    def probe_meta(self) -> dict:
        """The probe readings of the run, for ``meta``."""
        millis = [reading * 1000 for reading in self.probe.readings]
        quartiles = statistics.quantiles(millis, n=4)
        return {
            "probe_ms_median": quartiles[1],
            "probe_ms_quartiles": [quartiles[0], quartiles[2]],
            "probe_readings": len(millis),
        }

    def _scales(self) -> list[float]:
        return [self.probe.scale(position) for position in range(len(self.probe.readings) + 1)]

    @property
    def busy_s(self) -> float:
        """Busy CPU seconds at the reference speed."""
        scales = self._scales()
        return sum(busy * scales[position] for position, busy, _ in self._ops)

    @property
    def reads(self) -> list[float]:
        """Read CPU seconds at the reference speed, in operation order."""
        scales = self._scales()
        return [read * scales[position] for position, _, read in self._ops if read is not None]


# -- run metadata ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: str) -> str:
    """The filesystem type mounted at *path*'s longest matching mount point."""
    path = os.path.abspath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) >= 3 and (path == fields[1] or path.startswith(fields[1].rstrip("/") + "/")):
                    if len(fields[1]) > len(best):
                        best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def source_digest(root: str) -> str:
    """A digest of the program's sources (the checkout is not a git repository)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def steal_seconds() -> float:
    """CPU time the host has taken from this virtual machine since boot,
    summed over its cores (the ``steal`` column of ``/proc/stat``).

    Reported per run next to the metrics, not folded into them: on a
    shared virtual machine the runs that lost the most time to the host
    are the slow ones, and this figure shows which those were.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def metadata(root: str, seed: int) -> dict:
    """What a reader needs to compare two runs: machine, versions, source, seed."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }

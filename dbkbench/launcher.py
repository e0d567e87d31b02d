"""Start ``dbk serve`` from the checkout's sources, optionally traced.

Usage::

    python3 dbkbench/launcher.py [--spans FILE] -- serve --load KB.dbk --port 0 ...

Everything after ``--`` is passed to the ``dbk`` entry point unchanged.
With ``--spans`` the benchmark's layer wrappers (``dbkbench/tracing.py``)
are installed in this server process first, and the recorded spans are
written to FILE after the server has drained (SIGINT).

Before the program is imported, the launcher reads the speed probe
(``dbkbench/common.py``) on its own core and prints one line,
``dbkbench launcher: cpu_s=S probe_ms=P``: the CPU seconds this process
had used by then and the median reading.  The benchmark subtracts the
first from the server's CPU time at ``/healthz`` and scales the rest by
the second, so ``setup_s`` counts the program's start-up alone, at the
reference speed.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launcher.py [--spans FILE] -- DBK-ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, dbk_args = argv[:split], argv[split + 1:]
    spans = own[own.index("--spans") + 1] if "--spans" in own else None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from dbkbench.common import PROBE_WINDOW, SpeedProbe

    probe = SpeedProbe()
    readings = sorted(probe.measure() for _ in range(PROBE_WINDOW))
    print(
        f"dbkbench launcher: cpu_s={time.process_time()!r} "
        f"probe_ms={readings[len(readings) // 2] * 1000!r}",
        flush=True,
    )
    from repro.cli import main as dbk_main

    recorder = None
    if spans is not None:
        from dbkbench import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder, server=True)
    code = dbk_main(dbk_args)
    if recorder is not None:
        recorder.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

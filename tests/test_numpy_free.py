"""The library runs without numpy.

A subprocess blocks the ``numpy`` import (``sys.modules["numpy"] = None``
makes any ``import numpy`` raise), imports :mod:`repro`, and answers a
kernel ``retrieve``; its rows must equal the same query answered in this
process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.datasets import chain_graph_kb
from repro.engine import retrieve
from repro.lang.parser import parse_atom

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
sys.modules["numpy"] = None
import repro
from repro.datasets import chain_graph_kb
from repro.engine import retrieve
from repro.lang.parser import parse_atom
result = retrieve(chain_graph_kb(10), parse_atom("path(X, Y)"), executor="kernel")
print(json.dumps(sorted([str(v) for v in row] for row in result.rows)))
"""


def test_kernel_retrieve_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    expected = retrieve(chain_graph_kb(10), parse_atom("path(X, Y)"), executor="kernel")
    assert json.loads(completed.stdout) == sorted(
        [str(v) for v in row] for row in expected.rows
    )

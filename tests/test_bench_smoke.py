"""The benchmark harness runs end to end on tiny inputs.

`bench/run.py --smoke` runs every workload, traced and untraced, on
small algebras; a change to the package that breaks the harness or the
tracer fails here instead of only in a full benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_bench_smoke_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout.splitlines(), proc.stdout

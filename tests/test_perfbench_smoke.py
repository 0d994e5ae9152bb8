"""The benchmark's self-test, run as part of this suite.

`perfbench/` drives hybridkit through its public functions (prefill,
score_csr, evaluate_RC, ...), so a change to one of them that breaks the
benchmark fails here.  It runs in a subprocess because the benchmark caps
BLAS threads and edits sys.path for its own process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

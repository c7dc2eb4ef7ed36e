"""The traced benchmark still runs against the package and checks out.

A one-second traced run exercises every layer wrapper in
`bench/tracing.py` and the output checks in `bench/run.py`, so a change
to the package that leaves a required import site unwrapped, or an
output the reference disagrees with, fails here rather than at bench
time.  accel-relation covers Newton, the ladder and the tensor path;
counting-words covers `compare`, whose "skipped" verdicts on cyclic
systems the checks read.  kleene-scalar stays out: building its corpus
alone takes several seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["accel-relation", "counting-words"])
def test_traced_run_is_correct(workload):
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0

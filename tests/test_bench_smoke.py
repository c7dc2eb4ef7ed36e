"""The traced benchmark still runs against the package and checks out.

A one-second traced accel-relation run exercises every layer wrapper in
`bench/tracing.py` and every output check in `bench/run.py`, so a change
to the package that leaves a required import site unwrapped, or an
output the reference disagrees with, fails here rather than at bench
time.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_accel_relation_run_is_correct():
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", "accel-relation",
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

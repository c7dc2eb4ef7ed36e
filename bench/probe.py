"""Fixed piece of interpreted work that tracks the host's current speed.

The host's speed for Python code drifts by a third or more within seconds
on a shared box (busy hyperthread siblings, clock changes).  The probe
runs the reference evaluator on systems fixed here, independent of the
run's seed and of the package under test, so its time moves only with
the host.  Its mix of dict, tuple and call work resembles the package's,
which makes it track the drift much better than an arithmetic loop.
"""

from __future__ import annotations

import random
import time

import corpus
import reference as ref

_rng = random.Random("host-speed-probe")
_SYSTEMS = [
    (raw, ref.ops_of(raw))
    for raw in [corpus.random_system("min-plus", None, _rng, 12) for _ in range(3)]
    + [corpus.random_system("relation", 3, _rng, 5)]
]

# Probe time on the box the baseline was recorded on (2-core x86, typical
# load); scaled figures read as if every probe had taken this long.
REFERENCE_S = 0.002


def probe() -> float:
    """Seconds taken by the fixed work, now."""
    t0 = time.perf_counter()
    for _ in range(3):
        for raw, ops in _SYSTEMS:
            ref.completion(raw, ops, ref.constants(raw, ops))
    return time.perf_counter() - t0

"""End-to-end benchmark of the semifix command line, one workload per run.

    python3 bench/run.py --workload accel-relation --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run builds a seeded corpus of .sfx files (``corpus.py``), then acts as
one client in a closed loop: it calls ``semifix.cli.main(argv)``
in-process with ``--json`` and stdout captured, checks the output
against the independent reference (``reference.py``), and issues the
next command.  It cycles over the corpus until ``--seconds`` are spent.
One process, no threads.  Times are scaled by a host-speed probe taken
every 25 ms (``probe.py``), which cancels most of the drift of a shared
host; raw times are printed too.

``--trace 0`` reports the end-to-end metrics.  Interpreter start-up and
the package import are kept out of the command timings and reported as
``setup_s``, the median import time over fresh interpreters.
``--trace 1`` instead runs a fixed prefix of the corpus once with every
layer wrapped from outside (``tracing.py``), then once untraced, and
reports the per-layer metrics and the tracing overhead.  Spans go to
``bench/_work/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A command fails when it
crashes, exits with a code its status does not call for, or disagrees
with the reference; a disagreement also makes ``correct`` false.  A
``budget-exhausted`` status anywhere in the JSON is a checked outcome,
not a failure: it is counted apart and reported as the per-layer
``budget_exhausted_frac``.  ``--workload all`` runs every workload in child processes and
prints one table.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Systems per corpus: a pass takes 25-45 s untraced on a 2-core x86 box,
# so a 30 s run seldom wraps around to commands it has already run.
CORPUS_SYSTEMS = {"accel-relation": 320, "kleene-scalar": 4000, "counting-words": 2200}
# Traced-prefix commands per second of --seconds: the prefix runs once
# traced and once untraced in about --seconds, and for a given seed and
# --seconds every count repeats exactly.
TRACED_PER_S = {"accel-relation": 8, "kleene-scalar": 100, "counting-words": 25}
SETUP_REPEATS = 15

# Every end-to-end time is scaled by probe.REFERENCE_S / (time of the
# host-speed probe run next to it), so figures read as on a box where the
# probe takes REFERENCE_S; the raw figures are printed alongside.
PROBE_EVERY_S = 0.025
IMPORT_PROBE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
t = time.perf_counter()
import semifix.cli
took = time.perf_counter() - t
from probe import probe
print(took, statistics.median(probe() for _ in range(3)))
"""


def measure_setup() -> tuple[float, float]:
    """Median seconds to import the CLI module in a fresh interpreter.

    Returns the scaled and the raw median.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, probe_s = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / probe_s)
    # the first import may still be writing bytecode caches
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def check(cmd, rc, payload: dict) -> tuple[list[str], bool]:
    """Problems with one output, and whether it reported an exhausted budget."""
    exp = cmd.expect
    problems = []
    if cmd.check == "compare":
        results = payload["results"]
        statuses = [r["status"] for r in results.values()]
        exhausted = "budget-exhausted" in statuses
        k = results["kleene"]
        if k["status"] != exp["kleene"]["status"]:
            problems.append(f"kleene status {k['status']}, reference {exp['kleene']['status']}")
        elif k["values"] != (exp["kleene"]["values"] if k["status"] == "stabilized" else None):
            problems.append("kleene values differ from the reference")
        for method, r in results.items():
            if r["status"] not in ("stabilized", "budget-exhausted"):
                problems.append(f"{method} status {r['status']!r}")
            elif (r["values"] is None) != (r["status"] != "stabilized"):
                problems.append(f"{method} values do not match its status")
        for v in payload["verdicts"]:
            a, b = (results[m]["values"] for m in v["pair"])
            want = "skipped" if a is None or b is None else ("OK" if a == b else "DIFFER")
            if v["verdict"] != want:
                problems.append(f"verdict {v['pair']} is {v['verdict']}, values say {want}")
        if rc != 0:
            problems.append(f"exit {rc}")
        return problems, exhausted
    status = payload.get("status", "stabilized")
    exhausted = status == "budget-exhausted"
    if cmd.check == "kleene":
        for key in ("status", "steps", "values"):
            if payload[key] != exp[key]:
                problems.append(f"{key} {payload[key]!r}, reference {exp[key]!r}")
    else:
        if status != "stabilized":
            problems.append(f"status {status}")
        if payload["values"] != exp["values"]:
            problems.append("values differ from the reference")
        if cmd.check == "tensor" and (
            payload["verdict"] != "OK" or payload["reference"] != exp["values"]
        ):
            problems.append(f"tensor verdict {payload['verdict']}")
    if rc != (3 if exhausted else 0):
        problems.append(f"exit {rc} with status {status}")
    return problems, exhausted


class Loop:
    """Closed-loop client: one command at a time, output checked in between.

    Before a command, when PROBE_EVERY_S has passed since the last probe,
    the loop times the host-speed probe.
    """

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.probes: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.exhausted = 0
        self.mismatches: list[str] = []

    def run_one(self, cmd):
        now = time.perf_counter()
        if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((now, probe()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(cmd.argv))
            except Exception as exc:  # a crash is a failed command, not a failed run
                rc = f"raised {exc!r}"
            dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.starts.append(t0)
        try:
            problems, exhausted = check(cmd, rc, json.loads(out.getvalue()))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            problems, exhausted = [f"exit {rc}, unreadable output: {exc!r}"], False
        self.attempted += 1
        if problems:
            shown = " ".join(cmd.argv[:1] + cmd.argv[2:])
            self.mismatches.append(f"{cmd.file}: {shown}: {'; '.join(problems)}")
        if problems:
            self.failed += 1
        if exhausted:
            self.exhausted += 1

    def for_seconds(self, seconds: float):
        """Cycle over the corpus until the given seconds have passed."""
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            self.run_one(self.commands[i % len(self.commands)])
            i += 1
        self.probes.append((time.perf_counter(), probe()))

    def once(self, commands, tracer=None):
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command = i
            self.run_one(cmd)
        self.probes.append((time.perf_counter(), probe()))

    def scaled_latencies(self) -> list[float]:
        """Latencies scaled by the mean of the probes just before and after."""
        at = [t for t, _ in self.probes]
        took = [p for _, p in self.probes]
        out = []
        for t0, dt in zip(self.starts, self.latencies):
            j = bisect.bisect(at, t0)
            out.append(dt * 2 * REFERENCE_S / (took[j - 1] + took[j]))
        return out


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(seconds: list[float]) -> dict:
    ms = [1000.0 * t for t in seconds]
    return {
        "cmds_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "cmd_p50_ms": (statistics.median(ms), "ms"),
        "cmd_p90_ms": (percentile(ms, 90), "ms"),
    }


def end_to_end(cli, commands, seconds: float) -> tuple[Loop, dict, dict]:
    setup_s, raw_setup_s = measure_setup()
    Loop(cli, commands).once(_warmup(commands))
    loop = Loop(cli, commands)
    loop.for_seconds(seconds)
    metrics = latency_metrics(loop.scaled_latencies())
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (setup_s, "s")
    raw = latency_metrics(loop.latencies)
    raw["setup_s"] = (raw_setup_s, "s")
    took = [p for _, p in loop.probes]
    raw["probe_ms"] = (1000.0 * statistics.median(took), "ms")
    return loop, metrics, raw


def _warmup(commands):
    """First command of each kind, so lazy module state is built untimed."""
    seen, out = set(), []
    for cmd in commands:
        kind = (cmd.argv[0], *cmd.argv[2:])
        if kind not in seen:
            seen.add(kind)
            out.append(cmd)
    return out


def per_layer(cli, commands, workload: str, seed: int, seconds: float) -> tuple[Loop, dict]:
    from tracing import Tracer, metrics as layer_metrics

    prefix = commands[: max(1, round(seconds * TRACED_PER_S[workload]))]
    Loop(cli, commands).once(_warmup(commands))
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.missed_sites()
        if missed:
            raise SystemExit(f"tracing missed import sites: {', '.join(missed)}")
        traced = Loop(cli, commands)
        traced.once(prefix, tracer)
    finally:
        tracer.uninstall()
    plain = Loop(cli, commands)
    plain.once(prefix)
    WORK.mkdir(exist_ok=True)
    tracer.write_spans(WORK / f"spans-{workload}-{seed}.jsonl")
    on = len(prefix) / sum(traced.scaled_latencies())
    off = len(prefix) / sum(plain.scaled_latencies())
    metrics = layer_metrics(tracer, len(prefix))
    metrics["failed_frac"] = (traced.failed / traced.attempted, "ratio")
    metrics["budget_exhausted_frac"] = (traced.exhausted / traced.attempted, "ratio")
    metrics["trace.cmds_per_s_on"] = (on, "1/s")
    metrics["trace.cmds_per_s_off"] = (off, "1/s")
    metrics["trace.overhead_x"] = (off / on, "x")
    return traced, metrics


def run_workload(args) -> int:
    if not (SRC / "semifix" / "cli.py").is_file():
        print(f"no package source at {SRC / 'semifix'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SEMIFIX_BUDGET", None)
    import corpus
    from semifix import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported semifix from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    corpus_dir = WORK / f"corpus-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        commands = corpus.build(
            args.workload, args.seed, CORPUS_SYSTEMS[args.workload], corpus_dir
        )
        if args.trace:
            loop, metrics = per_layer(cli, commands, args.workload, args.seed, args.seconds)
            raw = {}
        else:
            loop, metrics, raw = end_to_end(cli, commands, args.seconds)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    for line in loop.mismatches:
        print(f"MISMATCH {line}")
    print(
        f"{args.workload} seed {args.seed}: {loop.attempted} commands, "
        f"{loop.failed} failed (failed_frac {loop.failed / loop.attempted:.4f}), "
        f"{loop.exhausted} budget-exhausted "
        f"(budget_exhausted_frac {loop.exhausted / loop.attempted:.4f}), "
        f"{len(loop.mismatches)} differ from the reference"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  raw {name:32s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": not loop.mismatches,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import corpus

    ok = True
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(out.stdout.rsplit("\n", 2)[0] + "\n")
            if out.returncode != 0:
                sys.stdout.write(out.stderr)
                ok = False
            elif not json.loads(out.stdout.strip().splitlines()[-1])["correct"]:
                ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("accel-relation", "kleene-scalar", "counting-words", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --workload counting-words --seeds 1-10 --seconds 30 [--trace 1]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread: the distance between the quartiles as a share
of the median.  With ``--out`` the figures are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    names = list(runs[0]["metrics"])
    report = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": all(r["correct"] for r in runs),
        "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": {
            n: {"unit": runs[0]["metrics"][n]["unit"],
                **summarize([r["metrics"][n]["value"] for r in runs])}
            for n in names
        },
    }
    for n, m in report["metrics"].items():
        print(f"  {n:36s} median {m['median']:14.4f} {m['unit']:7s} spread {m['spread']:.4f}  "
              + " ".join(f"{v:.4g}" for v in m["values"]))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

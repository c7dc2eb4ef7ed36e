"""Record what the command line prints on every benchmark corpus command.

    python3 tests/cli_outputs.py --src src CORPUS_DIR OUT.jsonl

Builds the seed-7 corpora of the three benchmark workloads with
``bench/corpus.build`` into CORPUS_DIR, one subdirectory per workload.
Then it calls ``semifix.cli.main`` in process, with the package imported
from ``--src`` and every warning shown, on

- every corpus command, with and without ``--json``;
- ``tensor --level 0..3``, with and without ``--json``, on every
  accel-relation file;
- ``solve --method newton --steps 4`` and ``solve --method munchausen
  --steps 3``, with and without ``--json``, on every kleene-scalar and
  counting-words file;
- the commands that read a system's polynomials and constants, which a
  parsed system decodes from its payload rows on demand:
  ``completion --grammar``, ``grammar --level 1``, ``grammar
  --indexed`` and ``oracle --dim 1 --node-budget 200``, and
  ``completion --left-linear`` where the instance is commutative, with
  and without ``--json``, on every counting-words file and the first
  200 files of the other two corpora.

That is 79,216 invocations.

It writes one JSON line per invocation: argv, exit code, stdout, and
stderr with the package directory and the line numbers of source
locations masked, so that a warning's location reads
``<src>/semifix/cli.py:LINE:`` wherever its call moves.  Run it on two
source trees with the same CORPUS_DIR and compare the two outputs with
``cmp``: equal files mean the command line printed the same bytes and
exited the same way on every invocation.  It reads ``bench/`` and writes only CORPUS_DIR
and the output file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 7
TENSOR_LEVELS = range(4)
SOURCE_LINE = re.compile(r"(<src>/\S+\.py):\d+:")
ACCELERATED = (["--method", "newton", "--steps", "4"], ["--method", "munchausen", "--steps", "3"])
DECODING = (
    ["completion", "--grammar"],
    ["grammar", "--level", "1"],
    ["grammar", "--indexed"],
    # the default node budget lets one cyclic counting system run for minutes
    ["oracle", "--dim", "1", "--node-budget", "200"],
)
DECODING_FILES = 200  # files per corpus for DECODING, every file on counting-words


def invocations(corpus, systems: dict[str, int], directory: Path, commutative) -> list[list[str]]:
    """Every argv to run, in a fixed order; commutative(path) tells a file's instance apart."""
    runs = []
    for workload, n_systems in systems.items():
        commands = corpus.build(workload, SEED, n_systems, directory / workload)
        for cmd in commands:
            plain = [a for a in cmd.argv if a != "--json"]
            runs += [plain, plain + ["--json"]]
        paths = sorted({cmd.argv[1] for cmd in commands})
        for path in paths:
            if workload == "accel-relation":
                extra = [["tensor", path, "--level", str(level)] for level in TENSOR_LEVELS]
            else:
                extra = [["solve", path] + method for method in ACCELERATED]
            for plain in extra:
                runs += [plain, plain + ["--json"]]
        for path in paths if workload == "counting-words" else paths[:DECODING_FILES]:
            extra = [[argv[0], path, *argv[1:]] for argv in DECODING]
            if commutative(path):
                extra.append(["completion", path, "--left-linear"])
            for plain in extra:
                runs += [plain, plain + ["--json"]]
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, type=Path, help="directory holding the semifix package")
    p.add_argument("corpus_dir", type=Path)
    p.add_argument("out", type=Path)
    args = p.parse_args(argv)
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(BENCH)]
    os.environ.pop("SEMIFIX_BUDGET", None)
    warnings.simplefilter("always")
    import corpus
    from run import CORPUS_SYSTEMS
    from semifix import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"imported semifix from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    def commutative(path):
        return cli.parse(Path(path).read_text(encoding="utf-8")).semiring.is_commutative

    runs = invocations(corpus, CORPUS_SYSTEMS, args.corpus_dir.resolve(), commutative)
    with open(args.out, "w", encoding="utf-8") as fh:
        for run in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(list(run))
                except Exception as exc:  # recorded, so that both trees can be compared
                    rc = f"raised {type(exc).__name__}: {exc}"
            masked = SOURCE_LINE.sub(r"\1:LINE:", err.getvalue().replace(str(src), "<src>"))
            record = {"argv": run, "exit": rc, "stdout": out.getvalue(), "stderr": masked}
            fh.write(json.dumps(record) + "\n")
    print(f"{len(runs)} invocations written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

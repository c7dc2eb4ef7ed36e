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

    python3 tests/cli_outputs.py --src src --slice 5 CORPUS_DIR tests/data/cli_recording.jsonl

writes the recording that ``tests/test_cli_recording.py`` replays instead:
the same invocations on the first K files of each corpus, ``completion
--table`` on each of those files, and the argument shapes, budgets and
small files in ``RECORDED_ARGV``, ``RECORDED_TEXTS`` and
``TREE_SUM_TEXTS``, with paths relative to CORPUS_DIR.  Its first line
holds the Python version and the text of every file it reads.
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
    # the node budget of every earlier run, so that their outputs stay comparable
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


# Invocations of the recording that the corpus commands do not reach:
# the argument shapes that stop before a file is read, small files that
# the parser rejects or that its plain reader leaves to the token loop,
# and budgets just below and at the round where an iteration stops.
RECORDED_FILE = "kleene-scalar/0000.sfx"
RECORDED_ARGV = (
    [],
    ["-h"],
    ["solve", "-h"],
    *([command, "-h"] for command in ("compare", "oracle", "completion", "grammar", "tensor")),
    ["frobnicate", RECORDED_FILE],
    ["sol", RECORDED_FILE],
    ["solve"],
    ["solve", "missing.sfx"],
    ["solve", RECORDED_FILE, "--bogus"],
    ["solve", RECORDED_FILE, "extra"],
    ["solve", RECORDED_FILE, "--steps", "x"],
    ["solve", RECORDED_FILE, "--steps", "-1"],
    ["solve", RECORDED_FILE, "--meth", "newton"],
    ["solve", RECORDED_FILE, "--method=newton"],
    ["solve", RECORDED_FILE, "--"],
    ["solve", "--", RECORDED_FILE],
    ["--", "solve", RECORDED_FILE],
    ["--json", "solve", RECORDED_FILE],
    ["completion", RECORDED_FILE, "--grammar", "--table"],
    # one bad argv per option kind: exclusive flags, a count, a negative
    # count, a missing value and a value outside the choices
    ["completion", RECORDED_FILE, "--left-linear", "--table"],
    ["oracle", RECORDED_FILE, "--dim", "x"],
    ["grammar", RECORDED_FILE, "--level", "-2"],
    ["tensor", RECORDED_FILE, "--budget"],
    ["solve", RECORDED_FILE, "--method", "bogus"],
    ["oracle", RECORDED_FILE, "--no-complete", "--dim", "0", "--json"],
    # products, stars and companions at both relation row widths (see RECORDED_TEXTS)
    ["solve", "small/relation-8.sfx", "--method", "newton"],
    ["solve", "small/relation-9.sfx", "--method", "newton", "--json"],
    ["tensor", "small/relation-8.sfx", "--json"],
    ["tensor", "small/relation-9.sfx"],
    ["compare", "small/min-plus-beyond-float.sfx"],
    ["completion", "small/min-plus-beyond-float.sfx", "--json"],
    ["oracle", "small/min-plus-deep.sfx", "--dim", "1024"],
    # budgets around the round where an iteration stops: counting-words/0000.sfx
    # is exhausted at 3 and stabilized at 4
    *(["solve", "counting-words/0000.sfx", "--budget", str(b)] for b in range(5)),
    *(["solve", RECORDED_FILE, "--budget", str(b)] for b in range(4)),
    *(
        ["solve", "accel-relation/0000.sfx", "--method", "newton", "--steps", "8", "--budget", b]
        for b in ("3", "4")
    ),
    *(["completion", RECORDED_FILE, "--budget", str(b)] for b in range(4)),
    # chains at linear budgets 0, 1 and 2, on a system whose chain changes and on
    # systems whose constants already solve them (see RECORDED_TEXTS): one
    # application of f can confirm a fixed point only with two rounds to spare
    *(
        ["solve", path, *method, "--budget", str(b)]
        for path in ("accel-relation/0000.sfx", "small/fixed-relation.sfx")
        for method in (
            ["--method", "newton", "--steps", "8"], ["--method", "munchausen", "--steps", "4"]
        )
        for b in range(3)
    ),
    *(["completion", "small/fixed-boolean.sfx", "--budget", str(b)] for b in range(3)),
    ["tensor", "small/fixed-relation.sfx", "--level", "2"],
    # expansion budgets just below and at 1, 2 and 4 times the 8 expansions of a
    # layer whose words repeat (see RECORDED_TEXTS): 0, 1, 1, 2 and 3 iterates
    *(
        ["solve", "small/counting-duplicate-words.sfx", "--method", "munchausen", "--steps", "3",
         "--budget", b]
        for b in ("7", "8", "15", "16", "32")
    ),
    ["compare", "small/counting-duplicate-words.sfx", "--json"],
    # tree sums whose smallest trees are large, or which never stop growing
    # (see TREE_SUM_TEXTS), at the default node budget
    *(
        ["oracle", f"small/{name}.sfx", "--dim", dim, *json_flag]
        for name, dim in (
            ("chain-16", "1"), ("min-plus-45", "1"), ("min-plus-45", "2"), ("counting-cycle", "1")
        )
        for json_flag in ([], ["--json"])
    ),
)


def _matrix(q: int, cells) -> str:
    """The compact text of the q x q relation holding the (row, column) cells."""
    return json.dumps([[int((i, j) in cells) for j in range(q)] for i in range(q)], separators=(",", ":"))


def _shift_system(q: int) -> str:
    """A two-variable relation[q] system of shifts, with a literal product."""
    shift = _matrix(q, {(i, i + 1) for i in range(q - 1)})
    return (
        f"semiring relation {q};\nvars x y;\n"
        f"x = {shift}*{shift}*y + {_matrix(q, {(0, 0)})};\ny = {shift}*x + {_matrix(q, {(q - 1, 0)})};\n"
    )


RECORDED_TEXTS = {
    "form-feed": "semiring boolean;\fvars x;\nx = x + 1;\n",
    "vertical-tab": "semiring boolean;\nvars x;\nx = x\v+ 1;\n",
    "unexpected": "semiring boolean;\nvars x;\nx = x $ 1;\n",
    "deep-bracket": "semiring relation 1;\nvars x;\nx = [[[0]]]*x;\n",
    "unbalanced": "semiring relation 2;\nvars x;\nx = [[0,1],[1,0]*x;\n",
    "non-ascii-name": "semiring counting;\nvars x\u00e9 y;\nx\u00e9 = y*y + 1;\ny = 2*x\u00e9;\n",
    "superscript": "semiring counting;\nvars x;\nx = \u00b2*x + 1;\n",
    "crlf": "semiring min-plus;\r\nvars x y;\r\nx = 3*y + 7;\r\ny = x + 2;\r\n",
    "eof-comment": "semiring boolean;\nvars x;\nx = x + 1; # no newline",
    "eof-comment-open": "semiring boolean;\nvars x;\nx = x + 1 # no semicolon",
    "header": "semiring boolean 2;\nvars x;\nx = 1;\n",
    "twice": "semiring boolean;\nvars x y x;\nx = 1;\n",
    "undeclared": "semiring boolean;\nvars x;\ny = 1;\n",
    "no-name": "semiring ;\nvars x;\nx = 1;\n",
    "no-factor": "semiring boolean;\nvars x;\nx = + 1;\n",
    "non-ascii-comment": "semiring boolean; # caf\u00e9\nvars x;\nx = x + 1;\n",
    "no-equals": "semiring boolean;\nvars x;\nx 1;\n",
    "second": "semiring boolean;\nvars x;\nx = 1;\nx = 0;\n",
    "missing": "semiring boolean;\nvars x y;\nx = 1;\n",
    "bad-literal": "semiring min-plus;\nvars x;\nx = 3*foo + 1;\n",
    "empty": "",
    "table-boolean": "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x*x;\n",
    "table-relation": "semiring relation 2;\nvars x;\nx = [[0,1],[0,0]]*x*x + [[1,0],[0,0]];\n",
    # relation literals that are not the compact text of a payload
    "relation-blanks": "semiring relation 2;\nvars x;\nx = [[0, 1], [1, 0]]*x + [[1,0],[0,0]];\n",
    "relation-true": "semiring relation 2;\nvars x;\nx = [[true,0],[0,1]]*x;\n",
    "relation-two": "semiring relation 2;\nvars x;\nx = [[0,2],[1,0]]*x;\n",
    "relation-leading-zero": "semiring relation 2;\nvars x;\nx = [[01,1],[1,0]]*x;\n",
    "relation-three-rows": "semiring relation 2;\nvars x;\nx = [[0,1],[1,0],[0,0]]*x;\n",
    "relation-short-row": "semiring relation 2;\nvars x;\nx = [[0,1],[1]]*x;\n",
    "relation-empty": "semiring relation 2;\nvars x;\nx = []*x;\n",
    "relation-empty-row": "semiring relation 2;\nvars x;\nx = [[]]*x;\n",
    # compact literals at the widest one-byte rows and the narrowest two-byte rows
    "relation-8": _shift_system(8),
    "relation-9": _shift_system(9),
    # min-plus costs beyond float range, which inf absorbs: a literal, and the
    # costs of about 2^1024 that the oracle's layer solves reach at --dim 1024
    "min-plus-beyond-float": "semiring min-plus;\nvars x;\nx = inf*1" + "0" * 400 + " + 2;\n",
    "min-plus-deep": "semiring min-plus;\nvars x y;\nx = x*y + 3;\ny = x*x + 1;\n",
    # systems whose constants already solve them, f(a) <= a; z stays zero
    "fixed-boolean": "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = 1;\n",
    "fixed-relation": (
        "semiring relation 2;\nvars x y z;\nx = x*y + [[1,1],[0,1]];\n"
        "y = [[1,0],[0,0]]*y*x + [[1,1],[0,1]];\nz = z*x;\n"
    ),
    # words that two derivations spell alike count once: x's layer takes 8 expansions
    "counting-duplicate-words": "semiring counting;\nvars x y z;\nx = y*y + y*y;\ny = z + z*1;\nz = 2;\n",
    # texts that split on ";", "=", "+" and "*" into pieces that are not whole
    # tokens: a blank str.split skips and the format does not, a name list with
    # a number or a comma, two "=", an empty statement, text after the last
    # ";", a "+" inside a bracket, two header numbers; "02" reads as 2
    "file-separator": "semiring boolean;\x1cvars x;\nx = 1;\n",
    "vars-number": "semiring boolean;\nvars 1 x;\nx = 1;\n",
    "vars-comma": "semiring boolean;\nvars x,y;\nx = 1;\ny = 1;\n",
    "two-equals": "semiring boolean;\nvars x;\nx = 1 = 0;\n",
    "empty-statement": "semiring boolean;\nvars x;\nx = 1;;\n",
    "trailing-text": "semiring boolean;\nvars x y;\nx = 1; y",
    "relation-plus": "semiring relation 2;\nvars x;\nx = [[0,1]+[1,0]]*x;\n",
    "header-two-numbers": "semiring relation 2 3;\nvars x;\nx = [[0,1],[1,0]]*x;\n",
    "header-leading-zero": "semiring relation 02;\nvars x;\nx = [[0,1],[1,0]]*x + [[1,0],[0,0]];\n",
    # a header parameter longer than the 4,300 digits int() reads from a string
    "header-long-parameter": "semiring relation " + "9" * 5000 + ";\nvars x;\nx = x;\n",
}


def _chain(semiring: str, last: str) -> str:
    """x1 = x2; ...; x15 = x16; x16 = last; over the named instance."""
    names = [f"x{i}" for i in range(1, 17)]
    equations = "".join(f"{x} = {y};\n" for x, y in zip(names, names[1:]))
    return f"semiring {semiring};\nvars {' '.join(names)};\n{equations}x16 = {last};\n"


# Files that only the oracle runs of RECORDED_ARGV read: a completion table
# over the 16 boolean variables of the chain would hold 65,536 points per line.
TREE_SUM_TEXTS = {
    # the first tree of x1 has 17 nodes
    "chain-16": _chain("boolean", "1"),
    # the smallest tree of z of dimension 2 has 20 nodes; its sum is 45
    "min-plus-45": (
        "semiring min-plus;\nvars x y z;\n"
        "x = 2*y*y + 9*z*z;\ny = 9*y + 8;\nz = 1*z*z*2 + x*2*x*7;\n"
    ),
    # every tree sum of dimension 1 grows without bound
    "counting-cycle": _chain("counting", "x1 + 1"),
}


def record(cli, argv: list[str], src: Path) -> dict:
    """One invocation of cli.main in process: argv, exit code, stdout, masked stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # recorded, so that both trees can be compared
            rc = f"raised {type(exc).__name__}: {exc}"
    masked = SOURCE_LINE.sub(r"\1:LINE:", err.getvalue().replace(str(src), "<src>"))
    return {"argv": argv, "exit": rc, "stdout": out.getvalue(), "stderr": masked}


def recording_runs(corpus, k: int, commutative) -> tuple[dict[str, str], list[list[str]]]:
    """The files and argv of the recording, with paths relative to the working directory.

    The corpus files are the first k of each seed-7 corpus, by position:
    a corpus is generated in order, so building k systems writes the same
    files as the first k of a full build.
    """
    systems = {workload: k for workload in corpus.WORKLOADS}
    runs = invocations(corpus, systems, Path("."), commutative)
    paths = sorted({run[1] for run in runs})
    # a table over a corpus file is megabytes long: record the point count check
    for path in paths:
        runs.append(["completion", path, "--table", "--budget", "64"])
    for name, text in {**RECORDED_TEXTS, **TREE_SUM_TEXTS}.items():
        path = f"small/{name}.sfx"
        Path(path).parent.mkdir(exist_ok=True)
        Path(path).write_bytes(text.encode("utf-8"))
        paths.append(path)
        if name in RECORDED_TEXTS:
            for plain in (["solve", path], ["completion", path, "--table"]):
                runs += [plain, plain + ["--json"]]
    runs += [list(argv) for argv in RECORDED_ARGV]
    files = {path: Path(path).read_bytes().decode("utf-8") for path in paths}
    return files, runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, type=Path, help="directory holding the semifix package")
    p.add_argument(
        "--slice",
        type=int,
        metavar="K",
        help="write the committed recording instead: the first K files of each corpus",
    )
    p.add_argument("corpus_dir", type=Path)
    p.add_argument("out", type=Path)
    args = p.parse_args(argv)
    src = args.src.resolve()
    out_path = args.out.resolve()
    sys.path[:0] = [str(src), str(BENCH)]
    os.environ.pop("SEMIFIX_BUDGET", None)
    os.environ["COLUMNS"] = "80"  # help text wraps at the terminal width
    warnings.simplefilter("always")
    import corpus
    from run import CORPUS_SYSTEMS
    from semifix import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"imported semifix from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    def commutative(path):
        return cli.parse(Path(path).read_text(encoding="utf-8")).semiring.is_commutative

    header = None
    if args.slice is None:
        runs = invocations(corpus, CORPUS_SYSTEMS, args.corpus_dir.resolve(), commutative)
    else:
        args.corpus_dir.mkdir(parents=True, exist_ok=True)
        os.chdir(args.corpus_dir)
        files, runs = recording_runs(corpus, args.slice, commutative)
        header = {"python": "%d.%d" % sys.version_info[:2], "files": files}
    with open(out_path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps(header) + "\n")
        for run in runs:
            fh.write(json.dumps(record(cli, run, src)) + "\n")
    print(f"{len(runs)} invocations written to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

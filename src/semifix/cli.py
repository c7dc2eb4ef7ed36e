"""Command line front end for the equation workbench.

Systems are small text files: a semiring header, a variable list, then
one equation per variable, each statement closed by a semicolon.

    semiring counting;
    vars x y z;
    x = y*y;
    y = z;
    z = 2;

Exit codes: 0 success, 1 usage, 2 malformed input, 3 budget exhausted,
4 violated internal invariant, 141 (128 + SIGPIPE) standard output
closed before the output was written.

Each subcommand's options are declared once, in one table
(`_COMMANDS`).  The common argv shape, a subcommand name, one file and
exact option strings with well-formed values, is read directly from it
(`_read_argv`), into the namespace argparse would build, and builds no
parser.  Every other argv goes to the argparse parser that
`build_parser` builds from the same table, which writes every usage,
help and error text.

A run loads only the modules its command runs: this one, `polynomial`,
`semiring` and `solver` always; `munchausen` for `compare`, `solve
--method munchausen`, `completion --grammar`, `--left-linear` and
`--table`, `grammar` and `tensor`; `grammar` for `oracle`; `tensor` for
`tensor`.  Each runner imports them in the branch that needs them, so a
one-shot `solve` or `completion` does not pay for their import.  No
module imports `dataclasses` or `typing`: every record class is built on
one plain base (`semiring._Record`), which spares every command the
import of `dataclasses`, `inspect` and `typing`.
"""

from __future__ import annotations

import argparse
import json as jsonlib
import os
import re
import sys as _sys
from functools import lru_cache

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    _word_rows,
    render_polynomial,
    rhs_poly,
)
from semifix.semiring import (
    InstanceMismatchError,
    NotFiniteError,
    instance_by_name,
    vector_eq,
)
from semifix.solver import (
    DEFAULT_NODE_BUDGET,
    BudgetExhaustedError,
    completion_via_differential_star,
    kleene_solve,
    newton_solve,
)

SCHEMA_VERSION = "v1"


class EquationSyntaxError(ValueError):
    """Rejected input text, pinned to file, line, and column."""

    def __init__(self, message: str, filename: str, line: int, col: int):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


# One token per match: blanks are skipped, comments and the end are
# matched so that the end keeps its position, and "other" is either a
# bracket nested deeper than the two levels spelled out here or a
# character no token starts with.  Some alternative matches whatever
# follows the blanks, so no match backtracks into them.  {alpha},
# {digit} and {alnum} add the non-ASCII characters of the text at hand
# that str.isalpha, str.isdigit and str.isalnum accept, the classes the
# file format is defined by.
_TOKEN_PATTERN = r"""
    [ \t\r\n]*
    (?:
        (?P<punct>[=+*;])
      | (?P<name>[A-Za-z_{alpha}][A-Za-z0-9_{alnum}-]*)
      | (?P<number>[0-9{digit}]+)
      | (?P<matrix>\[(?:[^\[\]]|\[[^\[\]]*\])*\])
      | (?P<comment>\#[^\n]*)
      | (?P<end>\Z)
      | (?P<other>.)
    )"""
_ASCII_TOKEN = re.compile(_TOKEN_PATTERN.format(alpha="", digit="", alnum=""), re.VERBOSE)
_BRACKET = re.compile(r"[\[\]]")

_NOT_LITERAL = frozenset(("=", "+", "*", ";", ""))  # punctuation and the end

# What `_read_plain` takes: blanks, header and `vars` list, and factor token kinds
_BLANKS = " \t\r\n"
_NAME = "[A-Za-z_][A-Za-z0-9_-]*"
_PLAIN_HEAD = re.compile(
    rf"[{_BLANKS}]*semiring[{_BLANKS}]+({_NAME})(?:[{_BLANKS}]+([0-9]+))?[{_BLANKS}]*;"
    rf"[{_BLANKS}]*vars((?:[{_BLANKS}]+{_NAME})+)[{_BLANKS}]*;"
)
_FACTOR_KINDS = ("name", "number", "matrix")


def _token_pattern(text: str) -> re.Pattern:
    if text.isascii():
        return _ASCII_TOKEN
    wide = [ch for ch in set(text) if not ch.isascii()]
    classes = {
        name: re.escape("".join(ch for ch in wide if test(ch)))
        for name, test in (("alpha", str.isalpha), ("digit", str.isdigit), ("alnum", str.isalnum))
    }
    return re.compile(_TOKEN_PATTERN.format(**classes), re.VERBOSE)


def _position(text: str, at: int) -> tuple[int, int]:
    """Line and column, both from 1, of an offset."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _scan(text: str, filename: str) -> list[tuple[str, int]]:
    """The (text, offset) tokens of a system, closed by the end token ("", offset).

    A token's kind shows in its first character: "=+*;" for punctuation,
    "[" for a matrix, a digit for a number, a letter or "_" for a name.
    A comment that runs to the end of the text places the end token at
    its "#".  Raises on a character no token starts with and on
    unbalanced brackets.
    """
    pattern = _token_pattern(text)
    n = len(text)
    end_at = n
    tokens = []
    pos = 0
    while True:
        for m in pattern.finditer(text, pos):
            kind = m.lastgroup
            at = m.start(kind)
            if kind == "other":
                break
            if kind == "comment":
                if m.end() == n:
                    end_at = at
            elif kind == "end":
                tokens.append(("", end_at))
                return tokens
            else:
                tokens.append((m[kind], at))
        if text[at] != "[":
            raise EquationSyntaxError(
                f"unexpected character {text[at]!r}", filename, *_position(text, at)
            )
        # a bracket nested deeper than the pattern spells: scan its depth
        depth = 0
        for bracket in _BRACKET.finditer(text, at):
            depth += 1 if bracket[0] == "[" else -1
            if depth == 0:
                break
        if depth:
            raise EquationSyntaxError("unbalanced brackets", filename, *_position(text, at))
        pos = bracket.end()
        tokens.append((text[at:pos], at))


def _is_name(token: str) -> bool:
    first = token[:1]
    return first.isalpha() or first == "_"


def _read_plain(text: str, literals: dict) -> EquationSystem | None:
    """The system of a plain text, split on ";", "=", "+" and "*", or None if it is not plain.

    Plain is ASCII with no "#": a header that `_PLAIN_HEAD` matches and
    `instance_by_name` takes, distinct variables, then one `VARIABLE =
    PRODUCT + ...;` per variable, a product `FACTOR*FACTOR...` of
    variables and single name, number or matrix tokens (`_ASCII_TOKEN`)
    that `Semiring._parse` reads.  Pieces are stripped of the format's
    blanks, " \t\r\n": any other blank stays and fails these tests.
    `literals` keeps the literals read, coded, for the token loop too.
    """
    if "#" in text or not text.isascii() or (head := _PLAIN_HEAD.match(text)) is None:
        return None
    name, digits, names = head.groups()
    variables = names.split()
    n = len(variables)
    index = {x: j for j, x in enumerate(variables)}
    statements = text.split(";")[2:]
    if len(index) != n or len(statements) != n + 1 or statements.pop().strip(_BLANKS):
        return None
    try:
        sr = instance_by_name(name, None if digits is None else int(digits))
    except ValueError:
        return None
    codes = dict(index)  # word -> its code: a variable's index, a literal's 1-tuple

    def code(word):
        token = _ASCII_TOKEN.fullmatch(word)
        if token is None or token.lastgroup not in _FACTOR_KINDS:
            raise ValueError(f"{word!r} is not one token")
        coded = codes[word] = literals[word] = (sr._parse(word),)
        return coded

    equations = [None] * n
    try:
        for statement in statements:
            lhs, equals, rhs = statement.partition("=")
            j = index.get(lhs.strip(_BLANKS))
            if j is None or not equals or equations[j] is not None:
                return None
            equations[j] = words = []
            for term in rhs.split("+"):  # loops, not comprehensions: no call per product
                word = []
                for w in term.split("*"):
                    w = w.strip(_BLANKS)
                    word.append(codes[w] if w in codes else code(w))
                words.append(word)
    except ValueError:
        return None
    return EquationSystem._of_rows(sr, tuple(variables), *_word_rows(sr, equations))


def parse(text: str, filename: str = "<input>") -> EquationSystem:
    """Read a system from its textual form, in one pass from text to payload rows.

    A plain text, as `render` writes it, is split (`_read_plain`); the
    token loop below reads any other text from `_scan`'s tokens.
    Both code each word as they read it, a variable as its index and a
    literal, read once per call, as the 1-tuple of its payload, and
    build the system from the payload rows `polynomial._word_rows`
    writes from the coded words (`EquationSystem._of_rows`), so no
    `Value`, `Monomial` or `Polynomial` is made until a caller reads `f`
    or `a`.  An `EquationSyntaxError` is pinned to the line and column
    of the offending token, from the offset `_scan` gave it.
    """
    literals: dict[str, tuple] = {}  # literal text -> (payload,), for this call only
    system = _read_plain(text, literals)
    if system is not None:
        return system
    scanned = _scan(text, filename)
    tokens = [token for token, _ in scanned]

    def fail(message: str, i: int):
        raise EquationSyntaxError(message, filename, *_position(text, scanned[i][1]))

    def expected(what: str, i: int):
        found = tokens[i]
        fail(f"expected {what}, found {found!r}" if found else f"expected {what}", i)

    if tokens[0] != "semiring":
        fail("expected 'semiring'", 0)
    name = tokens[1]
    if not _is_name(name):
        expected("a semiring name", 1)
    word = tokens[2]
    number = word[:1].isdigit()
    if number and not word.isdecimal():  # str.isdigit also admits '²'
        fail(f"semiring parameter {word!r} is not a decimal number", 2)
    try:
        param = int(word) if number else None
    except ValueError:  # more digits than int() reads from a string
        fail(f"semiring parameter of {len(word)} digits is too long", 2)
    i = 3 if number else 2
    try:
        sr = instance_by_name(name, param)
    except ValueError as exc:
        fail(str(exc), 1)
    if tokens[i] != ";":
        expected("';'", i)
    if tokens[i + 1] != "vars":
        fail("expected 'vars'", i + 1)
    i += 2
    variables = []
    while _is_name(tokens[i]):
        v = tokens[i]
        i += 1
        if v in variables:
            fail(f"variable {v} declared twice", i)
        variables.append(v)
    if not variables:
        fail("expected at least one variable", i)
    if tokens[i] != ";":
        expected("';'", i)
    i += 1

    index = {x: j for j, x in enumerate(variables)}
    equations: dict[str, list] = {}  # variable -> the coded words of its products
    lhs = tokens[i]
    while lhs:
        if lhs not in index:
            if not _is_name(lhs):
                expected("a variable", i)
            fail(f"undeclared variable {lhs}", i)
        if lhs in equations:
            fail(f"second equation for {lhs}", i)
        if tokens[i + 1] != "=":
            expected("'='", i + 1)
        i += 2
        products = [[]]
        while True:  # one factor per pass
            word = tokens[i]
            if word in _NOT_LITERAL:
                fail("expected a variable or literal", i)
            coded = index.get(word)
            if coded is None:
                coded = literals.get(word)
                if coded is None:
                    try:
                        coded = literals[word] = (sr._parse(word),)
                    except ValueError as exc:
                        fail(f"not a variable or {sr.name} literal: {exc}", i)
            products[-1].append(coded)
            i += 1
            if tokens[i] == "+":
                products.append([])
            elif tokens[i] != "*":
                break
            i += 1
        if tokens[i] != ";":
            expected("';'", i)
        i += 1
        equations[lhs] = products
        lhs = tokens[i]
    missing = [v for v in variables if v not in equations]
    if missing:
        fail(f"no equation for {', '.join(missing)}", i)
    rows, constants = _word_rows(sr, [equations[x] for x in variables])
    return EquationSystem._of_rows(sr, tuple(variables), rows, constants)


def render(sys: EquationSystem) -> str:
    """Canonical textual form; parsing it back recovers the system."""
    sr = sys.semiring
    q = getattr(sr, "q", None)
    header = f"semiring relation {q}" if q is not None else f"semiring {sr.name}"
    lines = [header + ";", "vars " + " ".join(sys.variables) + ";"]
    lines += [f"{x} = {render_polynomial(rhs_poly(sys, x))};" for x in sys.variables]
    return "\n".join(lines) + "\n"


def _rendered(sys: EquationSystem, v) -> dict[str, str]:
    return {x: sys.semiring.render(v[x]) for x in sys.variables}


_encode_str = jsonlib.encoder.encode_basestring_ascii  # the encoder json.dumps uses for str


def _json(obj, pad: str = "\n") -> str:
    """obj as `json.dumps(obj, indent=2)` writes it, at the line break and indent pad.

    Strings and the other scalars go through json's own C encoders;
    dicts and lists get the separators and two-space indent of
    json.dumps, so the text is byte for byte the same without its
    pure-Python indenting encoder.
    """
    if type(obj) is str:
        return _encode_str(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (_encode_str(k) + ": " + _json(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + pad + "]"
    return jsonlib.dumps(obj)


def _emit(args, payload: dict, text_lines: list[str]):
    """Print the payload, behind the schema and command envelope, or the text.

    The payload is written by `_json`, as `json.dumps(..., indent=2)` would.
    """
    if args.json:
        envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
        print(_json({**envelope, **payload}))
    else:
        for line in text_lines:
            print(line)


def _budget(args) -> int | None:
    given = getattr(args, "budget", None)
    if given is not None:
        return given
    env = os.environ.get("SEMIFIX_BUDGET")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise BadUsage(f"SEMIFIX_BUDGET must be an integer, got {env!r}")
        if value < 0:
            raise BadUsage(f"SEMIFIX_BUDGET must be non-negative, got {env!r}")
        return value
    return None


def _count(text: str) -> int:
    """Argument type for step, level, dimension and budget counts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class BadUsage(ValueError):
    pass


def _verdict(a, b) -> str:
    """OK or DIFFER for two vectors; "skipped" when either did not stabilize."""
    if a is None or b is None:
        return "skipped"
    return "OK" if vector_eq(a, b) else "DIFFER"


def _run_solve(args, sys: EquationSystem) -> int:
    budget = _budget(args)
    if args.method == "kleene":
        out = kleene_solve(sys, budget)
        values, status, steps = out.value, out.status, out.steps_used
    else:
        if args.method == "newton":
            seq = newton_solve(sys, args.steps, budget)
        else:
            from semifix.munchausen import munchausen_sequence

            seq = munchausen_sequence(sys, args.steps, budget=budget)
        values = seq.iterates[-1] if seq.iterates else None
        status, steps = seq.status, max(len(seq.iterates) - 1, 0)
    shown = _rendered(sys, values) if values is not None else None
    payload = {
        "method": args.method,
        "semiring": sys.semiring.name,
        "variables": list(sys.variables),
        "status": status,
        "steps": steps,
        "values": shown,
    }
    lines = [f"{x} = {shown[x]}" for x in sys.variables] if shown else []
    lines.append(f"status: {status} after {steps} steps")
    _emit(args, payload, lines)
    return 0 if status == "stabilized" else 3


def _run_compare(args, sys: EquationSystem) -> int:
    from semifix.munchausen import munchausen_sequence

    budget = _budget(args)
    results = {}
    out = kleene_solve(sys, budget)
    results["kleene"] = (out.value if out.stabilized else None, out.status)
    for method, seq in (
        ("newton", newton_solve(sys, args.steps, budget)),
        ("munchausen", munchausen_sequence(sys, args.steps, budget=budget)),
    ):
        last = seq.iterates[-1] if seq.stabilized and seq.iterates else None
        results[method] = (last, seq.status)
    methods = list(results)
    verdicts = [
        {"pair": [a, b], "verdict": _verdict(results[a][0], results[b][0])}
        for i, a in enumerate(methods)
        for b in methods[i + 1 :]
    ]
    payload = {
        "semiring": sys.semiring.name,
        "steps": args.steps,
        "results": {
            m: {"status": st, "values": _rendered(sys, v) if v is not None else None}
            for m, (v, st) in results.items()
        },
        "verdicts": verdicts,
    }
    lines = []
    for m, (v, st) in results.items():
        shown = " ".join(f"{x}={sys.semiring.render(v[x])}" for x in sys.variables) if v else st
        lines.append(f"{m}: {shown}")
    for v in verdicts:
        lines.append(f"{v['pair'][0]} vs {v['pair'][1]}: {v['verdict']}")
    _emit(args, payload, lines)
    return 0


def _run_oracle(args, sys: EquationSystem) -> int:
    from semifix.grammar import _tree_sums, grammar_with_constants

    g = grammar_with_constants(sys)
    at = None if args.complete else dict(sys.a)
    sums, all_stable = _tree_sums(g, args.dim, args.complete, at, args.node_budget)
    payload = {
        "semiring": sys.semiring.name,
        "dim": args.dim,
        "complete": args.complete,
        "stabilized": all_stable,
        "tree_sums": _rendered(sys, sums),
    }
    lines = [f"{x} = {payload['tree_sums'][x]}" for x in sys.variables]
    if args.complete:
        seq = newton_solve(sys, args.dim)
        if seq.stabilized:
            iterate = seq.iterates[args.dim]
            payload["iterate"] = _rendered(sys, iterate)
            payload["verdict"] = _verdict(sums if all_stable else None, iterate)
            lines.append(
                "vs iterate: " + " ".join(f"{x}={payload['iterate'][x]}" for x in sys.variables)
            )
            lines.append(f"verdict: {payload['verdict']}")
    if not all_stable:
        lines.append("status: budget-exhausted")
    _emit(args, payload, lines)
    return 0 if all_stable else 3


def _run_completion(args, sys: EquationSystem) -> int:
    if args.left_linear and not sys.semiring.is_commutative:
        raise BadUsage(f"--left-linear needs a commutative instance, got {sys.semiring.name}")
    if args.grammar or args.left_linear:
        from semifix.munchausen import (
            left_linear_completion_grammar,
            lincfg_to_json,
            linear_completion_grammar,
        )

        build = linear_completion_grammar if args.grammar else left_linear_completion_grammar
        lg = build(sys)
        _emit(args, {"grammar": lincfg_to_json(lg)}, _grammar_lines(lg))
        return 0
    if args.table:
        from semifix.munchausen import completion_function_table

        table = completion_function_table(sys, _budget(args))
        fs = table[sys.variables[0]].semiring
        shown = {x: fs.render(table[x]) for x in sys.variables}
        _emit(args, {"table": shown}, [f"{x}: {shown[x]}" for x in sys.variables])
        return 0
    values = completion_via_differential_star(sys, None, _budget(args))
    shown = _rendered(sys, values)
    _emit(args, {"values": shown}, [f"{x} = {shown[x]}" for x in sys.variables])
    return 0


def _grammar_lines(lg) -> list[str]:
    from semifix.munchausen import render_lsym

    lines = []
    for lhs, words in lg.rules.items():
        alts = " | ".join(" ".join(render_lsym(s) for s in w) for w in words)
        lines.append(f"{render_lsym(lhs)} -> {alts}")
    return lines


DEFAULT_GRAMMAR_RULES = 1 << 16  # `grammar --level` rules allowed without SEMIFIX_BUDGET


def _run_grammar(args, sys: EquationSystem) -> int:
    from semifix.munchausen import (
        NonTerm,
        Terminal,
        indexed_grammar_of,
        indexed_to_json,
        lincfg_to_json,
        munchausen_grammar,
        render_lsym,
    )

    if args.indexed:
        ig = indexed_grammar_of(sys)

        def spell(s):
            if isinstance(s, Terminal):
                return render_lsym(s)
            return f"{s.var}[1.s]" if isinstance(s, NonTerm) else f"{s.var}[s]"

        lines = []
        for y, words in ig.recursion.items():
            for w in words:
                lines.append(f"{y}[1.s] -> {' '.join(spell(s) for s in w)}")
        for y in ig.variables:
            lines.append(f"{y}[1.s] -> {y}[s]")
            lines.append(f"{y}[0] -> {y}")
        _emit(args, {"indexed": indexed_to_json(ig)}, lines)
        return 0
    limit = _budget(args)
    limit = DEFAULT_GRAMMAR_RULES if limit is None else limit
    k = len(sys.variables)
    # 2^level > limit once level reaches limit's bit length: no huge shift
    if args.level >= limit.bit_length() or k << args.level > limit:
        raise BudgetExhaustedError(
            f"a level {args.level} ladder in {k} variables has {k}*2^{args.level} rules, "
            f"more than the rule budget of {limit}"
        )
    lg = munchausen_grammar(sys, args.level)
    _emit(args, {"level": args.level, "grammar": lincfg_to_json(lg)}, _grammar_lines(lg))
    return 0


def _run_tensor(args, sys: EquationSystem) -> int:
    from semifix.munchausen import munchausen_sequence
    from semifix.tensor import tensor_pipeline

    if getattr(sys.semiring, "q", None) is None:
        raise BadUsage(f"tensor command needs a relation system, got {sys.semiring.name}")
    got = tensor_pipeline(sys, args.level)
    seq = munchausen_sequence(sys, args.level, budget=_budget(args))
    ref = seq.iterates[args.level] if seq.stabilized else None
    payload = {
        "level": args.level,
        "values": _rendered(sys, got),
        "reference": _rendered(sys, ref) if ref is not None else None,
        "verdict": _verdict(got, ref),
    }
    lines = [f"{x} = {payload['values'][x]}" for x in sys.variables]
    lines.append(f"verdict: {payload['verdict']}")
    _emit(args, payload, lines)
    return 0 if ref is not None else 3


# Each subcommand's help, then its options in the order its help lists
# them.  An option is (option string, kind, default, help), the kind one
# of `_count`, a tuple of choices, `_FLAG` (store_true), `_EXCLUSIVE` (a
# flag of the subcommand's one mutually exclusive group) and `_NEGATABLE`
# (`--x/--no-x`).  Every subcommand takes `file` and `_JSON` first.
_FLAG, _EXCLUSIVE, _NEGATABLE = "store_true", "exclusive", "--x/--no-x"
_JSON = ("--json", _FLAG, False, "machine readable output")
_COMMANDS = {
    "solve": (
        "compute the least solution",
        ("--method", ("kleene", "newton", "munchausen"), "kleene", None),
        ("--steps", _count, 3, "iterates for the accelerated methods"),
        ("--budget", _count, None, "iteration budget override"),
    ),
    "compare": (
        "run all methods and diff the results",
        ("--steps", _count, 2, None),
        ("--budget", _count, None, None),
    ),
    "oracle": (
        "sum derivation trees by dimension",
        ("--dim", _count, 2, "dimension bound"),
        ("--complete", _NEGATABLE, True, "restrict to fully expanded trees"),
        ("--node-budget", _count, DEFAULT_NODE_BUDGET, None),
    ),
    "completion": (
        "substitution closure of the system",
        ("--grammar", _EXCLUSIVE, False, "emit the closure grammar"),
        (
            "--left-linear",
            _EXCLUSIVE,
            False,
            "emit the left linear variant (commutative instances only)",
        ),
        ("--table", _EXCLUSIVE, False, "tabulate the closure over a finite instance"),
        ("--budget", _count, None, "linear solve iterations, or table points with --table"),
    ),
    "grammar": (
        "emit the doubling ladder grammar",
        ("--level", _count, 1, "number of doublings"),
        ("--indexed", _FLAG, False, "emit the stack indexed form"),
    ),
    "tensor": (
        "solve through the tensor companion",
        ("--level", _count, 1, None),
        ("--budget", _count, None, None),
    ),
}


def _reader(options: tuple) -> tuple[dict, dict]:
    """A subcommand's namespace defaults, and the destination and kind of
    each option `_read_argv` reads: all but the exclusive and negatable flags."""
    defaults = {"file": None}
    read = {}
    for option, kind, default, _ in (_JSON, *options):
        dest = option[2:].replace("-", "_")
        defaults[dest] = default
        if kind not in (_EXCLUSIVE, _NEGATABLE):
            read[option] = (dest, kind)
    return defaults, read


_READERS = {name: _reader(options) for name, (_, *options) in _COMMANDS.items()}  # built once


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built from `_COMMANDS` once per process.

    Parsing reads it and never changes it, so in-process callers of
    `main` share one.  `main` builds it only for an argv that
    `_read_argv` declines.
    """
    top = argparse.ArgumentParser(
        prog="semifix",
        description="Solve polynomial fixed point systems over semiring instances.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (summary, *options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help="system description file")
        group = None
        for option, kind, default, help_text in (_JSON, *options):
            if kind == _EXCLUSIVE:
                group = group or p.add_mutually_exclusive_group()
                group.add_argument(option, action="store_true", help=help_text)
                continue
            if kind == _FLAG:
                how = {"action": "store_true"}
            elif kind == _NEGATABLE:
                how = {"action": argparse.BooleanOptionalAction}
            else:
                how = {"choices" if type(kind) is tuple else "type": kind}
            p.add_argument(option, default=default, help=help_text, **how)
    return top


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """`build_parser().parse_args(argv)` for the common argv shape, else None.

    The shape: argv[0] names a subcommand exactly, one word that does not
    start with "-" is the file, and every other word is an option string
    of `_READERS`, either a flag or an option followed by one value that
    does not start with "-" and passes its `_count` or lies in its
    choices.  Such an argv parses without an error, to the subcommand's
    defaults overridden by the words read, as here.
    """
    reader = _READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    defaults, options = reader
    values = dict(defaults)
    file = None
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if file is not None:
                return None
            file = word
            continue
        option = options.get(word)
        if option is None:
            return None
        dest, kind = option
        if kind == _FLAG:
            values[dest] = True
            continue
        value = next(words, "-")  # a missing value is rejected as one starting with "-"
        if value[:1] == "-":
            return None
        if type(kind) is tuple:
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except argparse.ArgumentTypeError:
                return None
        values[dest] = value
    if file is None:
        return None
    values["file"] = file
    return argparse.Namespace(command=argv[0], **values)


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, without argparse where it can.

    `_read_argv` reads the common shape directly.  Any other argv goes to
    the full parser, which writes every help, usage and error text.
    """
    args = _read_argv(argv)
    return args if args is not None else build_parser().parse_args(argv)


_RUNNERS = {
    "solve": _run_solve,
    "compare": _run_compare,
    "oracle": _run_oracle,
    "completion": _run_completion,
    "grammar": _run_grammar,
    "tensor": _run_tensor,
}


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_argv(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=_sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        print(f"{args.file}: not UTF-8: byte {bad:#04x} at offset {exc.start}", file=_sys.stderr)
        return 2
    try:
        sys = parse(text, args.file)
        code = _RUNNERS[args.command](args, sys)
        _sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: send what is still buffered to
        # devnull, so that the flush at interpreter exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 141
    except EquationSyntaxError as exc:
        print(exc, file=_sys.stderr)
        return 2
    except (BadUsage, NotFiniteError) as exc:
        print(exc, file=_sys.stderr)
        return 1
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=_sys.stderr)
        return 3
    except (InvariantError, InstanceMismatchError) as exc:
        print(f"internal invariant violated: {exc}", file=_sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

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

The options are declared once, on the argparse subcommand parsers.  The
common argv shape, a subcommand name, one file and exact option strings
with well-formed values, is read directly from a table derived from
those parsers (`_read_argv`), into the namespace argparse would build.
argparse reads every other argv and writes every usage, help and error
text.

A run loads only the modules its command runs: this one, `polynomial`,
`semiring` and `solver` always; `munchausen` for `compare`, `solve
--method munchausen`, `completion --grammar`, `--left-linear` and
`--table`, `grammar` and `tensor`; `grammar` for `oracle`; `tensor` for
`tensor`.  Each runner imports them in the branch that needs them, so a
one-shot `solve` or `completion` does not pay for their import.
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

# The common case, scanned without offsets: ASCII text of tokens and
# blanks, with no comment, no blank inside a bracket and no bracket
# nested deeper than two levels.  findall skips whatever no token
# matches, so a text is in this case exactly when what it skipped was
# blanks only, that is, when the tokens joined are the text without its
# blanks.  In this case the tokens are the ones `_scan` yields.
_PLAIN_TOKEN = re.compile(r"[=+*;]|[A-Za-z_][A-Za-z0-9_-]*|[0-9]+|\[(?:[^\[\]]|\[[^\[\]]*\])*\]")
_DELETE_BLANKS = str.maketrans("", "", " \t\r\n")
_NOT_LITERAL = frozenset(("=", "+", "*", ";", ""))  # punctuation and the end


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


def _tokenize(text: str, filename: str) -> list[str]:
    """The tokens of a system as strings, closed by the end token "".

    A token's kind shows in its first character: one of "=+*;" for
    punctuation, "[" for a matrix, a digit for a number, a letter or "_"
    for a name.  The common case (see _PLAIN_TOKEN) takes one findall;
    any other text goes through `_scan`, which raises where the text
    holds no token.  Offsets are left to `_scan` as well: it yields the
    same tokens, so token i of this list is token i of the scan.
    """
    if text.isascii():
        tokens = _PLAIN_TOKEN.findall(text)
        if "".join(tokens) == text.translate(_DELETE_BLANKS):
            tokens.append("")
            return tokens
    return [token for token, _ in _scan(text, filename)]


def _is_name(token: str) -> bool:
    first = token[:1]
    return first.isalpha() or first == "_"


def parse(text: str, filename: str = "<input>") -> EquationSystem:
    """Read a system from its textual form, in one pass from text to payload rows.

    `_tokenize` splits the text into token strings.  The parser then
    reads each distinct literal once per call (`Semiring._parse` gives a
    checked payload), multiplies adjacent coefficients with the
    instance's `_mul`, drops a monomial whose payload product holds a
    zero, and writes each monomial as the row entry (c0, ((variable
    index, c1), ...)) that `EquationSystem.compiled` holds, a unit
    coefficient as None.  Constant monomials are summed into the constant
    payload in order.  The system is built from those rows
    (`EquationSystem._of_rows`), so no `Value`, `Monomial` or `Polynomial`
    is made until a caller reads `f` or `a`.  An `EquationSyntaxError` is
    pinned to the line and column of the offending token, whose offset
    `_scan` gives only when one is raised.
    """
    tokens = _tokenize(text, filename)

    def fail(message: str, i: int):
        at = _scan(text, filename)[i][1]
        raise EquationSyntaxError(message, filename, *_position(text, at))

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
    param = int(word) if number else None
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
    mul, add, zero, one = sr._mul, sr._add, sr._zero(), sr._one()
    literals: dict[str, object] = {}  # literal text -> payload, for this call only
    rows: dict[str, tuple] = {}
    constants: dict[str, object] = {}
    lhs = tokens[i]
    while lhs:
        if lhs not in index:
            if not _is_name(lhs):
                expected("a variable", i)
            fail(f"undeclared variable {lhs}", i)
        if lhs in rows:
            fail(f"second equation for {lhs}", i)
        if tokens[i + 1] != "=":
            expected("'='", i + 1)
        i += 2
        monomials = []
        constant = zero
        while True:  # one monomial per pass
            coefficients = []  # payloads, None for a unit
            factors = []  # variable indices
            slot = None
            while True:  # one factor per pass
                word = tokens[i]
                j = index.get(word)
                if j is not None:
                    coefficients.append(None if slot == one else slot)
                    factors.append(j)
                    slot = None
                elif word not in _NOT_LITERAL:
                    p = literals.get(word)
                    if p is None:
                        try:
                            p = literals[word] = sr._parse(word)
                        except ValueError as exc:
                            fail(f"not a variable or {sr.name} literal: {exc}", i)
                    slot = p if slot is None else mul(slot, p)
                else:
                    fail("expected a variable or literal", i)
                i += 1
                if tokens[i] != "*":
                    break
                i += 1
            if factors:
                coefficients.append(None if slot == one else slot)
                if zero not in coefficients:
                    monomials.append((coefficients[0], tuple(zip(factors, coefficients[1:]))))
            elif slot != zero:
                constant = add(constant, slot)
            if tokens[i] != "+":
                break
            i += 1
        if tokens[i] != ";":
            expected("';'", i)
        i += 1
        rows[lhs] = tuple(monomials)
        constants[lhs] = constant
        lhs = tokens[i]
    missing = [v for v in variables if v not in rows]
    if missing:
        fail(f"no equation for {', '.join(missing)}", i)
    return EquationSystem._of_rows(
        sr, tuple(variables), tuple(rows[x] for x in variables), [constants[x] for x in variables]
    )


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
    values = completion_via_differential_star(sys, dict(sys.a), _budget(args))
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
    )

    if args.indexed:
        ig = indexed_grammar_of(sys)

        def spell(s):
            if isinstance(s, Terminal):
                return s.value.semiring.render(s.value)
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


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing reads it and never changes it, so in-process callers of
    `main` share one; a one-shot `semifix` run builds it once either way.
    """
    return _parsers()[0]


@lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line parser and its subcommand parsers by name."""
    top = argparse.ArgumentParser(
        prog="semifix",
        description="Solve polynomial fixed point systems over semiring instances.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system description file")
        p.add_argument("--json", action="store_true", help="machine readable output")

    p = sub.add_parser("solve", help="compute the least solution")
    common(p)
    p.add_argument(
        "--method",
        choices=("kleene", "newton", "munchausen"),
        default="kleene",
    )
    p.add_argument("--steps", type=_count, default=3, help="iterates for the accelerated methods")
    p.add_argument("--budget", type=_count, help="iteration budget override")

    p = sub.add_parser("compare", help="run all methods and diff the results")
    common(p)
    p.add_argument("--steps", type=_count, default=2)
    p.add_argument("--budget", type=_count)

    p = sub.add_parser("oracle", help="sum derivation trees by dimension")
    common(p)
    p.add_argument("--dim", type=_count, default=2, help="dimension bound")
    p.add_argument(
        "--complete",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="restrict to fully expanded trees",
    )
    p.add_argument("--node-budget", type=_count, default=DEFAULT_NODE_BUDGET)

    p = sub.add_parser("completion", help="substitution closure of the system")
    common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--grammar", action="store_true", help="emit the closure grammar")
    mode.add_argument(
        "--left-linear",
        action="store_true",
        help="emit the left linear variant (commutative instances only)",
    )
    mode.add_argument(
        "--table", action="store_true", help="tabulate the closure over a finite instance"
    )
    p.add_argument(
        "--budget", type=_count, help="linear solve iterations, or table points with --table"
    )

    p = sub.add_parser("grammar", help="emit the doubling ladder grammar")
    common(p)
    p.add_argument("--level", type=_count, default=1, help="number of doublings")
    p.add_argument("--indexed", action="store_true", help="emit the stack indexed form")

    p = sub.add_parser("tensor", help="solve through the tensor companion")
    common(p)
    p.add_argument("--level", type=_count, default=1)
    p.add_argument("--budget", type=_count)

    return top, sub.choices


@lru_cache(maxsize=None)
def _argv_readers() -> dict[str, tuple[dict, str, dict]]:
    """Per subcommand name: its defaults, its positional and the options read directly.

    Derived from the subcommand parsers of `_parsers`, so each option is
    declared once.  The options map every option string of an ungrouped
    one-value `store` action or `store_true` flag to its action; the
    mutually exclusive flags and every other kind of action are left to
    argparse.
    """
    readers = {}
    for name, p in _parsers()[1].items():
        grouped = {a for g in p._mutually_exclusive_groups for a in g._group_actions}
        options = {
            s: a
            for a in p._actions
            if a not in grouped
            and (
                type(a) is argparse._StoreTrueAction
                or (type(a) is argparse._StoreAction and a.nargs is None)
            )
            for s in a.option_strings
        }
        defaults = {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS}
        (positional,) = [a.dest for a in p._actions if not a.option_strings]
        readers[name] = (defaults, positional, options)
    return readers


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """`build_parser().parse_args(argv)` for the common argv shape, else None.

    The shape: argv[0] names a subcommand exactly, one word that does not
    start with "-" is the file, and every other word is an exact option
    string from `_argv_readers`, either a flag or an option followed by
    one value that does not start with "-", passes the option's type and
    lies in its choices.  Such an argv parses without an error, to the
    subcommand's defaults overridden by the words read, as here.
    """
    reader = _argv_readers().get(argv[0]) if argv else None
    if reader is None:
        return None
    defaults, positional, options = reader
    values = dict(defaults)
    file = None
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            if file is not None:
                return None
            file = word
            continue
        action = options.get(word)
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(words, "-")  # a missing value is rejected as one starting with "-"
        if value[:1] == "-":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if file is None:
        return None
    values[positional] = file
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

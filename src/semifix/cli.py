"""Command line front end for the equation workbench.

Systems are small text files: a semiring header, a variable list, then
one equation per variable, each statement closed by a semicolon.

    semiring counting;
    vars x y z;
    x = y*y;
    y = z;
    z = 2;

Exit codes: 0 success, 1 usage, 2 malformed input, 3 budget exhausted,
4 violated internal invariant.
"""

from __future__ import annotations

import argparse
import json as jsonlib
import os
import sys as _sys
from dataclasses import dataclass
from functools import lru_cache

from semifix.grammar import DEFAULT_NODE_BUDGET, grammar_with_constants, tree_sum
from semifix.munchausen import (
    NonTerm,
    Terminal,
    indexed_grammar_of,
    indexed_to_json,
    left_linear_completion_grammar,
    lincfg_to_json,
    linear_completion_grammar,
    munchausen_grammar,
    munchausen_sequence,
    completion_via_differential_star,
    completion_function_table,
    render_lsym,
)
from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    Monomial,
    Polynomial,
    equation_system,
    monomial,
    polynomial,
    render_polynomial,
    rhs_poly,
)
from semifix.semiring import (
    InstanceMismatchError,
    NotFiniteError,
    Semiring,
    instance_by_name,
    vector_eq,
)
from semifix.solver import (
    DEFAULT_KLEENE_BUDGET,
    BudgetExhaustedError,
    kleene_solve,
    newton_solve,
)
from semifix.tensor import tensor_pipeline

SCHEMA_VERSION = "v1"


class EquationSyntaxError(ValueError):
    """Rejected input text, pinned to file, line, and column."""

    def __init__(self, message: str, filename: str, line: int, col: int):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, filename: str) -> list[_Token]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
        elif ch in " \t\r":
            i, col = i + 1, col + 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "=+*;":
            toks.append(_Token(ch, ch, line, col))
            i, col = i + 1, col + 1
        elif ch == "[":
            start_line, start_col, start = line, col, i
            depth = 0
            while i < n:
                if text[i] == "[":
                    depth += 1
                elif text[i] == "]":
                    depth -= 1
                elif text[i] == "\n":
                    line, col = line + 1, 0
                i, col = i + 1, col + 1
                if depth == 0:
                    break
            if depth != 0:
                raise EquationSyntaxError(
                    "unbalanced brackets", filename, start_line, start_col
                )
            toks.append(_Token("matrix", text[start:i], start_line, start_col))
        elif ch.isdigit():
            start, start_col = i, col
            while i < n and text[i].isdigit():
                i, col = i + 1, col + 1
            toks.append(_Token("number", text[start:i], line, start_col))
        elif ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] in "_-"):
                i, col = i + 1, col + 1
            toks.append(_Token("name", text[start:i], line, start_col))
        else:
            raise EquationSyntaxError(f"unexpected character {ch!r}", filename, line, col)
    toks.append(_Token("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[_Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise EquationSyntaxError(message, self.filename, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {what}, found {t.text!r}" if t.text else f"expected {what}")
        return self.take()

    def keyword(self, word: str):
        t = self.peek()
        if t.kind != "name" or t.text != word:
            self.fail(f"expected {word!r}")
        self.take()


def _parse_factor(p: _Parser, sr: Semiring, variables: set[str]):
    t = p.peek()
    if t.kind == "name" and t.text in variables:
        p.take()
        return t.text
    if t.kind in ("name", "number", "matrix"):
        p.take()
        try:
            return sr.parse_literal(t.text)
        except ValueError as exc:
            p.fail(f"not a variable or {sr.name} literal: {exc}", t)
    p.fail("expected a variable or literal")


def _parse_term(p: _Parser, sr: Semiring, variables: set[str]) -> Monomial:
    factors = [_parse_factor(p, sr, variables)]
    while p.peek().kind == "*":
        p.take()
        factors.append(_parse_factor(p, sr, variables))
    return monomial(sr, factors)


def _parse_expr(p: _Parser, sr: Semiring, variables: set[str]) -> Polynomial:
    monos = [_parse_term(p, sr, variables)]
    while p.peek().kind == "+":
        p.take()
        monos.append(_parse_term(p, sr, variables))
    return polynomial(sr, monos)


def parse(text: str, filename: str = "<input>") -> EquationSystem:
    """Read a system from its textual form."""
    p = _Parser(_tokenize(text, filename), filename)
    p.keyword("semiring")
    name_tok = p.expect("name", "a semiring name")
    param = None
    if p.peek().kind == "number":
        param = int(p.take().text)
    try:
        sr = instance_by_name(name_tok.text, param)
    except ValueError as exc:
        p.fail(str(exc), name_tok)
    p.expect(";", "';'")
    p.keyword("vars")
    variables = []
    while p.peek().kind == "name":
        v = p.take().text
        if v in variables:
            p.fail(f"variable {v} declared twice")
        variables.append(v)
    if not variables:
        p.fail("expected at least one variable")
    p.expect(";", "';'")
    names = set(variables)
    rhs: dict[str, Polynomial] = {}
    while p.peek().kind != "end":
        lhs = p.expect("name", "a variable")
        if lhs.text not in names:
            p.fail(f"undeclared variable {lhs.text}", lhs)
        if lhs.text in rhs:
            p.fail(f"second equation for {lhs.text}", lhs)
        p.expect("=", "'='")
        rhs[lhs.text] = _parse_expr(p, sr, names)
        p.expect(";", "';'")
    missing = [v for v in variables if v not in rhs]
    if missing:
        p.fail(f"no equation for {', '.join(missing)}")
    return equation_system(sr, tuple(variables), rhs)


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


def _emit(args, payload: dict, text_lines: list[str]):
    """Print the payload, behind the schema and command envelope, or the text."""
    if args.json:
        envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
        print(jsonlib.dumps({**envelope, **payload}, indent=2))
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


def _run_solve(args, sys: EquationSystem) -> int:
    budget = _budget(args)
    if args.method == "kleene":
        out = kleene_solve(sys, budget if budget is not None else DEFAULT_KLEENE_BUDGET)
        values, status, steps = out.value, out.status, out.steps_used
    else:
        if args.method == "newton":
            seq = newton_solve(sys, args.steps, budget)
        else:
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
    budget = _budget(args)
    results = {}
    out = kleene_solve(sys, budget if budget is not None else DEFAULT_KLEENE_BUDGET)
    results["kleene"] = (out.value if out.stabilized else None, out.status)
    for method, seq in (
        ("newton", newton_solve(sys, args.steps, budget)),
        ("munchausen", munchausen_sequence(sys, args.steps, budget=budget)),
    ):
        last = seq.iterates[-1] if seq.stabilized and seq.iterates else None
        results[method] = (last, seq.status)
    methods = list(results)
    verdicts = []
    for i, a in enumerate(methods):
        for b in methods[i + 1 :]:
            va, vb = results[a][0], results[b][0]
            verdicts.append(
                {
                    "pair": [a, b],
                    "verdict": "skipped"
                    if va is None or vb is None
                    else ("OK" if vector_eq(va, vb) else "DIFFER"),
                }
            )
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
    node_budget = args.node_budget
    g = grammar_with_constants(sys)
    at = None if args.complete else dict(sys.a)
    sums = {}
    all_stable = True
    for x in sys.variables:
        res = tree_sum(
            g, x, args.dim, complete_only=args.complete, at=at, node_budget=node_budget
        )
        sums[x] = res.value
        all_stable = all_stable and res.stabilized
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
            agree = vector_eq(sums, iterate)
            payload["iterate"] = _rendered(sys, iterate)
            payload["verdict"] = "OK" if agree else "DIFFER"
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
        build = linear_completion_grammar if args.grammar else left_linear_completion_grammar
        lg = build(sys)
        _emit(args, {"grammar": lincfg_to_json(lg)}, _grammar_lines(lg))
        return 0
    if args.table:
        table = completion_function_table(sys)
        fs = table[sys.variables[0]].semiring
        shown = {x: fs.render(table[x]) for x in sys.variables}
        _emit(args, {"table": shown}, [f"{x}: {shown[x]}" for x in sys.variables])
        return 0
    values = completion_via_differential_star(sys, dict(sys.a), _budget(args))
    shown = _rendered(sys, values)
    _emit(args, {"values": shown}, [f"{x} = {shown[x]}" for x in sys.variables])
    return 0


def _grammar_lines(lg) -> list[str]:
    lines = []
    for lhs, words in lg.rules.items():
        alts = " | ".join(" ".join(render_lsym(s) for s in w) for w in words)
        lines.append(f"{render_lsym(lhs)} -> {alts}")
    return lines


def _run_grammar(args, sys: EquationSystem) -> int:
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
    lg = munchausen_grammar(sys, args.level)
    _emit(args, {"level": args.level, "grammar": lincfg_to_json(lg)}, _grammar_lines(lg))
    return 0


def _run_tensor(args, sys: EquationSystem) -> int:
    if getattr(sys.semiring, "q", None) is None:
        raise BadUsage(f"tensor command needs a relation system, got {sys.semiring.name}")
    got = tensor_pipeline(sys, args.level)
    seq = munchausen_sequence(sys, args.level, budget=_budget(args))
    ref = seq.iterates[args.level] if seq.stabilized else None
    agree = ref is not None and vector_eq(got, ref)
    payload = {
        "level": args.level,
        "values": _rendered(sys, got),
        "reference": _rendered(sys, ref) if ref is not None else None,
        "verdict": "OK" if agree else "DIFFER",
    }
    lines = [f"{x} = {payload['values'][x]}" for x in sys.variables]
    lines.append(f"verdict: {payload['verdict']}")
    _emit(args, payload, lines)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing reads it and never changes it, so in-process callers of
    `main` share one; a one-shot `semifix` run builds it once either way.
    """
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
    p.add_argument("--budget", type=_count)

    p = sub.add_parser("grammar", help="emit the doubling ladder grammar")
    common(p)
    p.add_argument("--level", type=_count, default=1, help="number of doublings")
    p.add_argument("--indexed", action="store_true", help="emit the stack indexed form")

    p = sub.add_parser("tensor", help="solve through the tensor companion")
    common(p)
    p.add_argument("--level", type=_count, default=1)
    p.add_argument("--budget", type=_count)

    return top


_RUNNERS = {
    "solve": _run_solve,
    "compare": _run_compare,
    "oracle": _run_oracle,
    "completion": _run_completion,
    "grammar": _run_grammar,
    "tensor": _run_tensor,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=_sys.stderr)
        return 1
    try:
        sys = parse(text, args.file)
        return _RUNNERS[args.command](args, sys)
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

"""The one-pass parser against the recursive-descent parser it replaced.

The oracle below is that parser: a per-character tokenizer that builds a
token object per token, and a recursive descent that builds every
monomial through `monomial()` and `polynomial()`.  `parse` must give a
system whose `f` and `a` equal the oracle's, or the same error with the
same message and position, on seeded random systems, on single-character
mutants of them, and on fixed cases that exercise tabs, comments,
multi-line and deeply nested relation literals, and characters where
`str.isdigit` and `str.isalnum` differ from their ASCII counterparts.
"""

import importlib
import random
from dataclasses import dataclass

import pytest

from gen import instances_for_order_tests, random_system
from semifix import cli
from semifix.cli import EquationSyntaxError, parse, render
from semifix.polynomial import (
    EquationSystem,
    Monomial,
    Polynomial,
    equation_system,
    monomial,
    polynomial,
)
from semifix.munchausen import completion_via_differential_star
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    Semiring,
    Value,
    instance_by_name,
    relation_semiring,
)
from semifix.solver import kleene_solve


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
            return Value(sr, sr._parse(t.text))
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


def oracle_parse(text: str, filename: str = "<input>") -> EquationSystem:
    """Read a system from its textual form."""
    p = _Parser(_tokenize(text, filename), filename)
    p.keyword("semiring")
    name_tok = p.expect("name", "a semiring name")
    param = None
    if p.peek().kind == "number":
        tok = p.take()
        try:
            param = int(tok.text)
        except ValueError:
            p.fail(f"semiring parameter {tok.text!r} is not a decimal number", tok)
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


def values(sys: EquationSystem) -> tuple:
    """A system's `Value`-level view: the oracle's own, and what `parse`'s rows decode to.

    Compared in place of the rows, which `_word_rows` writes for both.
    """
    return sys.semiring, sys.variables, sys.f, sys.a


def outcome(read, text):
    """The system read, as `values`, or the error raised, in comparable form."""
    try:
        return values(read(text, "m.sfx"))
    except EquationSyntaxError as exc:
        return ("syntax", str(exc), exc.line, exc.col)


def seeded_texts(seed, per_instance):
    rng = random.Random(seed)
    texts = []
    for sr in instances_for_order_tests() + [relation_semiring(3), COUNTING]:
        for _ in range(per_instance):
            texts.append(render(random_system(sr, rng, rng.randint(1, 4))))
    return texts


def test_parsed_systems_decode_to_the_systems_they_render():
    rng = random.Random(37)
    for sr in (BOOLEAN, MIN_PLUS, COUNTING, relation_semiring(1), relation_semiring(3)):
        for _ in range(25):
            built = random_system(sr, rng, rng.randint(1, 4))
            parsed = parse(render(built))
            assert parsed == built and built == parsed
            assert parsed.f == built.f and parsed.a == built.a


def count_builds(monkeypatch) -> list:
    """A list naming each `Monomial`, `Polynomial` and `Value` built and each `_compile` call."""
    # the package exports a function named polynomial, which hides the module
    poly_module = importlib.import_module("semifix.polynomial")
    made = []
    compile_rows = poly_module._compile

    def counted_compile(*args):
        made.append("compile")
        return compile_rows(*args)

    for cls in (Monomial, Polynomial, Value):
        init = cls.__init__

        def counted_init(self, *args, _init=init, _name=cls.__name__):
            made.append(_name)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    monkeypatch.setattr(poly_module, "_compile", counted_compile)
    return made


def test_parse_and_solve_build_no_monomial_and_compile_nothing(monkeypatch):
    made = count_builds(monkeypatch)
    n = 16
    text = "semiring min-plus;\nvars " + " ".join(f"x{i}" for i in range(n)) + ";\n"
    for i in range(n):
        text += f"x{i} = 3*x{(i + 1) % n}*x{(i + 5) % n}*2 + x{(i + 3) % n} + {i % 4};\n"
    sys = parse(text)
    assert made == []
    assert kleene_solve(sys).stabilized
    completion_via_differential_star(sys, sys.a)
    # Values only for the constants and the two result vectors, none per coefficient
    assert made == ["Value"] * (3 * n)


@pytest.mark.parametrize(
    "text",
    [
        "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = 0*x + x*1*x;\n",
        "semiring relation 2;\nvars x;\nx = [[0,1],[0,0]]*x*[[1,1],[0,1]]*x + [[1,0],[0,0]];\n",
    ],
    ids=["boolean", "relation"],
)
def test_a_completion_table_builds_no_monomial_and_compiles_nothing(text, tmp_path, monkeypatch):
    path = tmp_path / "table.sfx"
    path.write_text(text)
    made = count_builds(monkeypatch)
    assert cli.main(["completion", str(path), "--table"]) == 0
    assert not {"Monomial", "Polynomial", "compile"} & set(made)


def test_random_systems_parse_as_the_oracle_reads_them():
    for text in seeded_texts(23, 25):
        got = parse(text)
        assert isinstance(got, EquationSystem)
        assert values(got) == values(oracle_parse(text))


# ASCII structure, blanks the format does and does not skip, and
# characters where str.isdigit/str.isalnum go beyond [0-9] and [A-Za-z0-9].
MUTANT_ALPHABET = " \t\r\n\x0b#;=+*[],019_-xyzsvinfé²٣½?"


def test_single_character_mutants_fail_or_parse_as_the_oracle_does():
    rng = random.Random(29)
    seen = set()
    for text in seeded_texts(31, 12):
        for _ in range(40):
            k = rng.randrange(len(text) + 1)
            ch = rng.choice(MUTANT_ALPHABET)
            op = rng.randrange(3)
            if op == 0:
                mutant = text[:k] + ch + text[k:]
            elif op == 1:
                mutant = text[:k] + ch + text[k + 1 :]
            else:
                mutant = text[:k] + text[k + 1 :]
            want = outcome(oracle_parse, mutant)
            assert outcome(parse, mutant) == want, mutant
            seen.add("syntax" if want[0] == "syntax" else "ok")
    # both accepted and rejected mutants were compared
    assert {"ok", "syntax"} <= seen


FIXED_CASES = [
    "",
    "semiring",
    "semiring boolean",
    "semiring\tboolean;\tvars\tx;\n\tx =\tx*x\t+ 1;\n",
    "semiring boolean;\r\nvars x;\r\nx = x*x + 1;\r\n",
    "semiring boolean; # header\nvars x y; # two\nx = y + 1; # first\ny = x; # last",
    # a comment that runs to the end of the text holds the end position at its "#"
    "semiring boolean; vars x; x = 1 # no semicolon",
    "semiring boolean; vars x y; x = 1; # y has no equation",
    "semiring boolean; vars x; x = 1; #",
    "# only a comment",
    "semiring relation 2;\nvars x;\nx = [[0,1],\n     [1,0]]*x + [[1,0],\n[0,1]];\n",
    "semiring relation 2;\nvars x;\nx = [[0,1],\n     [1,0]] ? x;\n",
    "semiring relation 2;\nvars x;\nx = [[0,1],\n     [1,0]] x;\n",
    "semiring relation 2;\nvars x;\nx = [[0,1],\n\t[1,0]\n",
    "semiring relation 1; vars x; x = [[1]]*x + [[0]];",
    "semiring relation 1; vars x; x = [[[0]]];",
    "semiring relation 1; vars x; x = [[[0]]]*x + [[1]];",
    "semiring relation 1; vars x; x = [[[0]] ;",
    "semiring relation 1; vars x; x = [ [ [ [1] ] ] ];",
    "semiring relation 2; vars x; x = [[0,1],[1,0]]*[[0,1],[1,0]]*x + [[0,1],[1,0]];",
    "semiring relation 2; vars x; x = [[0,0],[0,0]]*x + [[1,0],[0,1]];",
    "semiring relation 2; vars x; x = [[0,1],[1,0]] + [[1,0],[0,0]] + [[0,0],[0,1]];",
    "semiring relation 0; vars x; x = [[1]];",
    "semiring boolean; vars é; é = é*é + 1;",
    "semiring boolean; vars x; x = é;",
    "semiring boolean; vars xé x-é _é; xé = x-é; x-é = _é; _é = 1;",
    "semiring min-plus; vars x; x = ²;",
    "semiring min-plus; vars x; x = 1²*x + 0;",
    "semiring boolean; vars x²; x² = x²*x² + 1;",
    "semiring relation ²; vars x; x = [[1,0],[0,1]];",
    "semiring min-plus; vars x; x = ٣*x + ٣;",
    "semiring counting; vars x; x = ٣٣*x*٣ + ٣;",
    "semiring relation ٣; vars x; x = [[0,0,0],[0,0,0],[0,0,0]];",
    "semiring boolean; vars x; x = 1 ½;",
    "semiring boolean; vars x½; x½ = 1;",
    "semiring boolean; vars x; x = 1\x0b;",
    "semiring counting; vars x; x = 0*x + 2*3 + 3*2 + 0;",
    # 2^62 + 1 is above the counting cap, a literal both parsers reject; 2^62 reads exactly
    "semiring counting; vars x y; x = 2*y*0 + 4611686018427387905*2*y + inf;\ny = inf*x*0 + 1;",
    "semiring counting; vars x; x = 4611686018427387904*x + 4611686018427387904;",
    "semiring min-plus; vars x; x = inf*x + inf + 3 + 2;",
    "semiring boolean; vars x x; x = 1;",
    "semiring boolean; vars x; x = 1; x = 0;",
    "semiring boolean; vars x; x = * 1;",
    "semiring boolean; vars x; x = 1 +;",
    "semiring boolean; vars x; y = 1;",
    "semiring boolean; vars x; 1 = 1;",
    "semiring boolean; vars x; x 1;",
    "semiring boolean vars x; x = 1;",
    "semiring boolean; var x; x = 1;",
    "semiring 2; vars x; x = 1;",
    "semiring boolean; vars semiring; semiring = semiring*semiring + 1;",
    "semiring min-plus; vars inf; inf = inf + 1;",
    # one text per way the plain reader declines, and blanks around "*", which it reads
    "semiring boolean;\x1cvars x; x = 1;",
    "semiring boolean; vars 1 x; x = 1;",
    "semiring boolean; vars x,y; x = 1; y = 1;",
    "semiring boolean; vars x; x = 1 = 0;",
    "semiring boolean; vars x; x = 1;;",
    "semiring boolean; vars x y; x = 1; y",
    "semiring relation 2; vars x; x = [[0,1]+[1,0]]*x;",
    "semiring relation 2 3; vars x; x = [[0,1],[1,0]]*x;",
    "semiring relation 02; vars x; x = [[0,1],[1,0]]*x + [[1,0],[0,0]];",
    "semiring boolean; vars x y; x = y * y + 1; y = 1;",
]


@pytest.mark.parametrize("text", FIXED_CASES)
def test_fixed_cases_match_the_oracle(text):
    assert outcome(parse, text) == outcome(oracle_parse, text)


def test_each_literal_text_is_read_once_per_call(monkeypatch):
    sr = relation_semiring(2)
    calls = []
    read = type(sr)._parse

    def counted(self, text):
        calls.append(text)
        return read(self, text)

    monkeypatch.setattr(type(sr), "_parse", counted)
    text = "semiring relation 2; vars x; x = [[0,1],[1,0]]*x*[[0,1],[1,0]] + [[0,1],[1,0]];"
    parse(text)
    assert calls == ["[[0,1],[1,0]]"]
    parse(text)
    assert calls == ["[[0,1],[1,0]]"] * 2


def test_the_plain_reader_declines_or_reads_as_the_token_loop(monkeypatch):
    # The plain reader must decline a text or build the token loop's rows.
    read_plain = cli._read_plain
    monkeypatch.setattr(cli, "_read_plain", lambda text, literals: None)
    rng = random.Random(41)
    texts = seeded_texts(43, 6) + FIXED_CASES + ["  ", "x  # c\n  ", "x;\n\n", "#"]
    for text in list(texts):
        for _ in range(30):
            k = rng.randrange(len(text) + 1)
            texts.append(text[:k] + rng.choice(MUTANT_ALPHABET) + text[k:])
    read = set()
    for text in texts:
        plain = read_plain(text, {})
        if plain is not None:  # equal systems have equal instances, variables and rows
            assert plain == parse(text), text
        read.add(plain is not None)
    # both texts the reader reads and texts it leaves to the token loop were compared
    assert read == {True, False}


def test_rendered_texts_never_reach_the_token_loop(monkeypatch):
    def token_loop(text, filename):
        raise AssertionError(f"the token loop read {text!r}")

    monkeypatch.setattr(cli, "_scan", token_loop)
    rng = random.Random(47)
    texts = ["semiring counting;\nvars x y z;\nx = y*y;\ny = z;\nz = 2;\n"]  # the README chain
    for sr in (BOOLEAN, MIN_PLUS, COUNTING, *map(relation_semiring, (1, 2, 3, 4, 8, 9, 16))):
        for _ in range(15):
            texts.append(render(random_system(sr, rng, rng.randint(1, 6))))
    for text in texts:
        assert render(parse(text)) == text

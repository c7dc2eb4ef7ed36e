"""Acceleration by bootstrapped completion grammars.

The completion of a system sums, per variable, every monomial reachable
by single-spine substitution chains.  That sum is the language of a
small linear grammar; gluing a copy of the grammar on top of itself
doubles the number of substitution rounds captured per evaluation, so n
doublings squash 2^n rounds into one grammar evaluation.

Ladder layer j is the completion step C applied to layer j - 1, and
layer 1 is C(b).  Over idempotent instances the accelerated iterates
are therefore taken from the chain b, C(b), C(C(b)), ... of
`solver.newton_step`, sampled at powers of two and cut off at the first
fixed point.  The ladder itself remains the construction behind the
`grammar` command and the non-idempotent (counting) iterates, and the
oracle the tests check that chain against.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Union

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    Monomial,
    mono_of_value,
    monomial,
    polynomial,
    substitute_occurrence,
)
from semifix.semiring import (
    Semiring,
    Value,
    add_all,
    make_function_semiring,
    mul_all,
    vector_leq,
)
from semifix.solver import (
    BUDGET_EXHAUSTED,
    STABILIZED,
    BudgetExhaustedError,
    LinearSystem,
    SequenceOutcome,
    SolveOutcome,
    kleene_solve,
    newton_step,
    solve_linear,
)

DEFAULT_EXPANSION_BUDGET = 100_000


@dataclass(frozen=True)
class Terminal:
    """A fixed semiring value inside a grammar word."""

    value: Value


@dataclass(frozen=True)
class VarTerminal:
    """A system variable read as a terminal, valued by the argument vector."""

    var: str


@dataclass(frozen=True)
class NonTerm:
    """An indexed nonterminal; the index names its layer in the ladder."""

    var: str
    index: int


LSym = Union[Terminal, VarTerminal, NonTerm]


def render_lsym(sym: LSym) -> str:
    if isinstance(sym, Terminal):
        return sym.value.semiring.render(sym.value)
    if isinstance(sym, VarTerminal):
        return sym.var
    return f"{sym.var}^{sym.index}"


@dataclass
class LinearCfg:
    """Rules per indexed nonterminal, linear along each layer.

    Within one right-hand side at most one nonterminal carries the same
    index as the left-hand side; nonterminals one index below act as
    already-solved plugs.  `level` is set on complete ladders, where
    indices run through [1, 2^level], and is None for shifted fragments.
    """

    semiring: Semiring
    variables: tuple[str, ...]
    level: int | None
    rules: dict[NonTerm, tuple[tuple[LSym, ...], ...]]

    def start(self, var: str) -> NonTerm:
        if self.level is None:
            raise InvariantError("shifted fragments have no start nonterminal")
        return NonTerm(var, 2**self.level)


def check_linear(lg: LinearCfg):
    """Structural invariants: index range, one spine symbol per rule."""
    if lg.level is None:
        raise InvariantError("only complete ladders can be checked")
    top = 2**lg.level
    expected = {NonTerm(v, i) for v in lg.variables for i in range(1, top + 1)}
    if set(lg.rules) != expected:
        raise InvariantError("ladder must define every nonterminal of every layer")
    for lhs, words in lg.rules.items():
        for word in words:
            spines = 0
            for sym in word:
                if isinstance(sym, NonTerm):
                    if not 1 <= sym.index <= top:
                        raise InvariantError(
                            f"index {sym.index} outside [1, {top}] in rule for {render_lsym(lhs)}"
                        )
                    if sym.index == lhs.index:
                        spines += 1
                    elif sym.index != lhs.index - 1:
                        raise InvariantError(
                            f"rule for {render_lsym(lhs)} reaches layer {sym.index}"
                        )
                elif isinstance(sym, VarTerminal) and lhs.index != 1:
                    raise InvariantError(
                        f"variable terminal above the first layer in {render_lsym(lhs)}"
                    )
            if spines > 1:
                raise InvariantError(
                    f"rule for {render_lsym(lhs)} has {spines} same-layer nonterminals"
                )


def _word_symbols(m: Monomial, spine_occ: int) -> tuple[LSym, ...]:
    """Spell a monomial out, promoting one occurrence to the spine."""
    out: list[LSym] = []
    var_pos = 0
    for f in m.factors():
        if isinstance(f, str):
            if var_pos == spine_occ:
                out.append(NonTerm(f, 1))
            else:
                out.append(VarTerminal(f))
            var_pos += 1
        else:
            out.append(Terminal(f))
    return tuple(out)


def linear_completion_grammar(sys: EquationSystem) -> LinearCfg:
    """The grammar whose language per variable sums the completion.

    Per defining monomial and occurrence one rule keeps that occurrence
    as the growing spine and freezes everything else; a closing identity
    rule per variable mimics stopping the chain.
    """
    rules: dict[NonTerm, tuple[tuple[LSym, ...], ...]] = {}
    for y in sys.variables:
        words = []
        for m in sys.f[y].monomials:
            for occ in range(m.degree):
                words.append(_word_symbols(m, occ))
        words.append((VarTerminal(y),))
        rules[NonTerm(y, 1)] = tuple(words)
    return LinearCfg(sys.semiring, sys.variables, 0, rules)


def left_linear_completion_grammar(sys: EquationSystem) -> LinearCfg:
    """Completion grammar with the spine rotated to the front.

    Sound only when multiplication commutes, since the remainder of each
    monomial is multiplied out behind the spine regardless of where the
    occurrence sat.
    """
    if not sys.semiring.is_commutative:
        raise InvariantError(
            f"left linear completion needs a commutative instance, not {sys.semiring.name}"
        )
    one = mono_of_value(sys.semiring, sys.semiring.one())
    rules: dict[NonTerm, tuple[tuple[LSym, ...], ...]] = {}
    for y in sys.variables:
        words = []
        for m in sys.f[y].monomials:
            for occ in range(m.degree):
                z = m.variables[occ]
                remainder = substitute_occurrence(m, occ, one)
                word = (NonTerm(z, 1),) + _word_symbols(remainder, -1)
                words.append(word)
        words.append((VarTerminal(y),))
        rules[NonTerm(y, 1)] = tuple(words)
    return LinearCfg(sys.semiring, sys.variables, 0, rules)


def _shift_sym(sym: LSym, k: int) -> LSym:
    if isinstance(sym, NonTerm):
        return NonTerm(sym.var, sym.index + k)
    if isinstance(sym, VarTerminal):
        return NonTerm(sym.var, k)
    return sym


def index_shift(lg: LinearCfg, k: int) -> LinearCfg:
    """Raise every layer by k, plugging former variable terminals into layer k."""
    if k < 0:
        raise InvariantError("shift must be nonnegative")
    rules = {
        NonTerm(lhs.var, lhs.index + k): tuple(
            tuple(_shift_sym(s, k) for s in word) for word in words
        )
        for lhs, words in lg.rules.items()
    }
    return LinearCfg(lg.semiring, lg.variables, None, rules)


def munchausen_grammar(sys: EquationSystem, n: int) -> LinearCfg:
    """n-fold doubling of the completion grammar.

    Each round unions the ladder with a copy of itself shifted past its
    top layer, so the result has 2^n layers and starts at the top.
    """
    if n < 0:
        raise InvariantError("doubling count must be nonnegative")
    g = linear_completion_grammar(sys)
    for i in range(n):
        shifted = index_shift(g, 2**i)
        rules = dict(g.rules)
        rules.update(shifted.rules)
        g = LinearCfg(sys.semiring, sys.variables, i + 1, rules)
    return g


def _plug_value(
    sym: LSym, layer: int, b: Mapping[str, Value], solved: Mapping[NonTerm, Value]
) -> Value:
    if isinstance(sym, Terminal):
        return sym.value
    if isinstance(sym, VarTerminal):
        return b[sym.var]
    if sym.index >= layer:
        raise InvariantError(f"{render_lsym(sym)} is not below layer {layer}")
    return solved[sym]


def _layer_linear(lg, layer, keys, b, solved, budget):
    """Solve one layer as a linear system over the instance."""
    sr = lg.semiring
    names = {nt: f"{nt.var}@{nt.index}" for nt in keys}
    rhs = {}
    for nt in keys:
        monos = []
        for word in lg.rules[nt]:
            factors = []
            for sym in word:
                if isinstance(sym, NonTerm) and sym.index == layer:
                    factors.append(names[sym])
                else:
                    factors.append(_plug_value(sym, layer, b, solved))
            monos.append(monomial(sr, factors))
        rhs[names[nt]] = polynomial(sr, monos)
    lin = LinearSystem(
        sr,
        tuple(names[nt] for nt in keys),
        rhs,
        {names[nt]: sr.zero() for nt in keys},
    )
    out = solve_linear(lin, budget)
    return {nt: out.value[names[nt]] for nt in keys}, out.steps_used, out.stabilized


def _layer_expansion(lg, layer, keys, b, solved, budget, spent):
    """Sum distinct fully expanded words of one layer, breadth first.

    Works without idempotence: every distinct sentential form counts
    once, and expansion always rewrites the leftmost same-layer
    nonterminal.  Exact when the layer's spine graph is acyclic.
    """
    sr = lg.semiring
    values: dict[NonTerm, Value] = {}
    ok = True
    for nt in keys:
        start = (nt,)
        seen = {start}
        queue = deque([start])
        finished = []
        while queue:
            form = queue.popleft()
            pos = next(
                (
                    i
                    for i, s in enumerate(form)
                    if isinstance(s, NonTerm) and s.index == layer
                ),
                None,
            )
            if pos is None:
                finished.append(form)
                continue
            if spent[0] >= budget:
                ok = False
                continue
            spent[0] += 1
            for word in lg.rules[form[pos]]:
                nxt = form[:pos] + word + form[pos + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        values[nt] = add_all(
            sr,
            (
                mul_all(sr, (_plug_value(s, layer, b, solved) for s in form))
                for form in finished
            ),
        )
    return values, ok


def evaluate_grammar(
    lg: LinearCfg, b: Mapping[str, Value], budget: int | None = None
) -> SolveOutcome:
    """Value vector of a ladder grammar at an argument vector.

    Layers are solved bottom up; each layer sees the ones below as
    finished constants.  Idempotent instances solve each layer as a
    linear system, others sum the layer's distinct expansions so that
    repeated words are not double counted.
    """
    if lg.level is None:
        raise InvariantError("can only evaluate complete ladders")
    if set(b) < set(lg.variables):
        raise InvariantError("argument vector must cover every variable")
    layers = sorted({nt.index for nt in lg.rules})
    solved: dict[NonTerm, Value] = {}
    steps = 0
    status = STABILIZED
    spent = [0]
    for layer in layers:
        keys = [nt for nt in lg.rules if nt.index == layer]
        if lg.semiring.is_idempotent:
            values, used, ok = _layer_linear(lg, layer, keys, b, solved, budget)
            steps += used
        else:
            values, ok = _layer_expansion(
                lg,
                layer,
                keys,
                b,
                solved,
                DEFAULT_EXPANSION_BUDGET if budget is None else budget,
                spent,
            )
            steps = spent[0]
        solved.update(values)
        if not ok:
            status = BUDGET_EXHAUSTED
    top = 2**lg.level
    return SolveOutcome(
        {v: solved[NonTerm(v, top)] for v in lg.variables}, status, steps
    )


def _check_b_vector(sys: EquationSystem, b: Mapping[str, Value]):
    """Warn when b leaves the bracket between the constants and the solution."""
    lfp = kleene_solve(sys)
    if not lfp.stabilized:
        warnings.warn(
            "cannot verify the start vector: plain iteration did not stabilize",
            RuntimeWarning,
            stacklevel=3,
        )
        return
    if not (vector_leq(sys.a, b) and vector_leq(b, lfp.value)):
        warnings.warn(
            "start vector is outside [constants, least solution]; "
            "convergence guarantees do not apply",
            RuntimeWarning,
            stacklevel=3,
        )


def munchausen_sequence(
    sys: EquationSystem,
    n: int,
    b: Mapping[str, Value] | None = None,
    budget: int | None = None,
) -> SequenceOutcome:
    """Accelerated iterates 0..n at b; iterate k is the 2^k-layer ladder's value.

    Over idempotent instances iterate k is C^(2^k)(b) for the completion
    step C, so the completion step is applied at most 2^n times and the
    iterates are read off after steps 1, 2, 4, ...; from the first fixed
    point on they repeat it.  `budget` bounds each linear solve.  Other
    instances evaluate the ladder of every level, with `budget` bounding
    the word expansions.  The default start vector is the constant part.
    A custom start is sanity checked against the least solution when one
    is cheap to get.  On budget exhaustion the finished prefix is
    returned, flagged.
    """
    if b is None:
        b = dict(sys.a)
    else:
        b = dict(b)
        _check_b_vector(sys, b)
    iterates = []
    if sys.semiring.is_idempotent:
        v, steps, fixed = b, 0, False
        for k in range(n + 1):
            while steps < 2**k and not fixed:
                out = newton_step(sys, v, budget)
                if not out.stabilized:
                    return SequenceOutcome(iterates, BUDGET_EXHAUSTED)
                fixed = out.value == v
                v = out.value
                steps += 1
            iterates.append(v)
        return SequenceOutcome(iterates, STABILIZED)
    for k in range(n + 1):
        out = evaluate_grammar(munchausen_grammar(sys, k), b, budget)
        if not out.stabilized:
            return SequenceOutcome(iterates, BUDGET_EXHAUSTED)
        iterates.append(out.value)
    return SequenceOutcome(iterates, STABILIZED)


@dataclass(frozen=True)
class Coeff:
    """Indexed rule symbol: a fixed value, stack ignored."""

    value: Value


@dataclass(frozen=True)
class Held:
    """Indexed rule symbol: a variable continued one stack level down."""

    var: str


@dataclass(frozen=True)
class Spine:
    """Indexed rule symbol: the variable that keeps the full stack."""

    var: str


ISym = Union[Coeff, Held, Spine]


@dataclass
class IndexedGrammar:
    """One rule set driving every layer through a unary stack.

    Each variable carries the recursion rules of its nonterminal with a
    nonempty stack plus one implicit pop rule: with symbols left the
    nonterminal drops one, on the empty stack it becomes the plain
    variable.  The rule count never depends on how many layers get
    expanded.
    """

    semiring: Semiring
    variables: tuple[str, ...]
    recursion: dict[str, tuple[tuple[ISym, ...], ...]]

    @property
    def pop_variables(self) -> tuple[str, ...]:
        return self.variables

    @property
    def rule_count(self) -> int:
        return sum(len(words) for words in self.recursion.values()) + len(self.variables)


def indexed_grammar_of(sys: EquationSystem) -> IndexedGrammar:
    """Fold the whole ladder into stack-indexed rules."""
    recursion: dict[str, tuple[tuple[ISym, ...], ...]] = {}
    for y in sys.variables:
        words = []
        for m in sys.f[y].monomials:
            for occ in range(m.degree):
                word: list[ISym] = []
                var_pos = 0
                for f in m.factors():
                    if isinstance(f, str):
                        word.append(Spine(f) if var_pos == occ else Held(f))
                        var_pos += 1
                    else:
                        word.append(Coeff(f))
                words.append(tuple(word))
        recursion[y] = tuple(words)
    return IndexedGrammar(sys.semiring, sys.variables, recursion)


def expand_indexed(ig: IndexedGrammar, n: int) -> LinearCfg:
    """Unfold stacks of height up to 2^n into an explicit ladder."""
    if n < 0:
        raise InvariantError("expansion count must be nonnegative")
    rules: dict[NonTerm, tuple[tuple[LSym, ...], ...]] = {}
    for layer in range(1, 2**n + 1):
        for y in ig.variables:
            words = []
            for rule in ig.recursion[y]:
                word: list[LSym] = []
                for sym in rule:
                    if isinstance(sym, Coeff):
                        word.append(Terminal(sym.value))
                    elif isinstance(sym, Spine):
                        word.append(NonTerm(sym.var, layer))
                    elif layer == 1:
                        word.append(VarTerminal(sym.var))
                    else:
                        word.append(NonTerm(sym.var, layer - 1))
                words.append(tuple(word))
            pop: tuple[LSym, ...] = (
                (VarTerminal(y),) if layer == 1 else (NonTerm(y, layer - 1),)
            )
            words.append(pop)
            rules[NonTerm(y, layer)] = tuple(words)
    return LinearCfg(ig.semiring, ig.variables, n, rules)


def canonical_form(lg: LinearCfg):
    """Order-insensitive shape of a ladder, for comparing constructions."""
    shape = []
    for lhs in sorted(lg.rules, key=lambda nt: (nt.var, nt.index)):
        words = sorted(" ".join(render_lsym(s) for s in word) for word in lg.rules[lhs])
        shape.append(((lhs.var, lhs.index), tuple(words)))
    return tuple(shape)


def completion_via_differential_star(
    sys: EquationSystem, v: Mapping[str, Value], budget: int | None = None
) -> dict[str, Value]:
    """Completion value at v through the star of the linearization at v."""
    out = newton_step(sys, v, budget)
    if not out.stabilized:
        raise BudgetExhaustedError(
            f"linear solve did not stabilize within {out.steps_used} iterations"
        )
    return out.value


def completion_function_table(sys: EquationSystem) -> dict[str, Value]:
    """The completion as explicit tables over a finite instance.

    Solves the completion grammar once over the pointwise table instance,
    variable terminals becoming projections, so the result maps every
    argument vector at once.
    """
    fs = make_function_semiring(sys.semiring, sys.variables)
    lg = linear_completion_grammar(sys)
    rhs = {}
    for y in sys.variables:
        monos = []
        for word in lg.rules[NonTerm(y, 1)]:
            factors = []
            for sym in word:
                if isinstance(sym, Terminal):
                    factors.append(fs.constant(sym.value))
                elif isinstance(sym, VarTerminal):
                    factors.append(fs.projection(sym.var))
                else:
                    factors.append(sym.var)
            monos.append(monomial(fs, factors))
        rhs[y] = polynomial(fs, monos)
    lin = LinearSystem(
        fs, sys.variables, rhs, {y: fs.zero() for y in sys.variables}
    )
    out = solve_linear(lin)
    if not out.stabilized:
        raise BudgetExhaustedError("table solve did not stabilize")
    return out.value


def lincfg_to_json(lg: LinearCfg) -> dict:
    def sym(s: LSym):
        if isinstance(s, Terminal):
            return {"kind": "value", "value": s.value.semiring.render(s.value)}
        if isinstance(s, VarTerminal):
            return {"kind": "variable", "name": s.var}
        return {"kind": "nonterminal", "var": s.var, "index": s.index}

    return {
        "level": lg.level,
        "variables": list(lg.variables),
        "start": {v: render_lsym(lg.start(v)) for v in lg.variables}
        if lg.level is not None
        else None,
        "rules": [
            {"lhs": render_lsym(lhs), "rhs": [sym(s) for s in word]}
            for lhs, words in lg.rules.items()
            for word in words
        ],
    }


def indexed_to_json(ig: IndexedGrammar) -> dict:
    def sym(s: ISym):
        if isinstance(s, Coeff):
            return {"kind": "value", "value": s.value.semiring.render(s.value)}
        if isinstance(s, Held):
            return {"kind": "variable", "name": s.var, "stack": "pop"}
        return {"kind": "spine", "name": s.var, "stack": "keep"}

    return {
        "variables": list(ig.variables),
        "recursion": [
            {"lhs": y, "rhs": [sym(s) for s in word]}
            for y, words in ig.recursion.items()
            for word in words
        ],
        "pop": list(ig.pop_variables),
    }

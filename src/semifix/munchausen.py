"""Acceleration by bootstrapped completion grammars.

The completion of a system sums, per variable, every monomial reachable
by single-spine substitution chains.  That sum is the language of a
small linear grammar; gluing a copy of the grammar on top of itself
doubles the number of substitution rounds captured per evaluation, so n
doublings squash 2^n rounds into one grammar evaluation.

Ladder layer j is one completion step S applied to layer j - 1, so
every accelerated iterate is read off one chain b, S(b), S(S(b)), ...
at powers of two by `solver.sample_chain`, the one payload chain loop;
over counting, S applies compiled word sums.  The ladder itself remains
only behind the `grammar` command and the tests' oracles.

Without idempotence a layer's value sums its distinct words, which one
breadth-first kernel lists (`_layer_expansion`) over coded words: a
negative int ~k is the spine symbol of key k, anything else a plug.
The counting chain codes the system's payload rows directly, and the
ladder codes its grammar symbols with their payloads; both write the
finished words as rows with `polynomial._word_rows`.
"""

from __future__ import annotations

import warnings
from collections import deque
from collections.abc import Mapping
from functools import partial

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    Monomial,
    _apply,
    _payload,
    _word_rows,
    mono_of_value,
    substitute_occurrence,
)
from semifix.semiring import (
    Semiring,
    Value,
    _Frozen,
    _Record,
    make_function_semiring,
    vector_leq,
)
from semifix.solver import (
    BUDGET_EXHAUSTED,
    STABILIZED,
    BudgetExhaustedError,
    SequenceOutcome,
    SolveOutcome,
    _chain_step,
    _iterate,
    completion_via_differential_star,  # re-exported: defined beside newton_step
    kleene_solve,
    newton_step,
    sample_chain,
)

DEFAULT_EXPANSION_BUDGET = 100_000

# Points a completion table may have when no budget is given: 2^16, e.g.
# sixteen boolean or four relation[2] variables.  Each point is one
# argument vector, stored in every table of the solve.
DEFAULT_TABLE_POINTS = 1 << 16


class Terminal(_Frozen):
    """A fixed semiring value inside a grammar word."""

    def __init__(self, value: Value):
        vars(self).update(value=value)


class VarTerminal(_Frozen):
    """A system variable read as a terminal, valued by the argument vector."""

    def __init__(self, var: str):
        vars(self).update(var=var)


class NonTerm(_Frozen):
    """An indexed nonterminal; the index names its layer in the ladder."""

    def __init__(self, var: str, index: int):
        vars(self).update(var=var, index=index)


LSym = Terminal | VarTerminal | NonTerm


def render_lsym(sym: LSym) -> str:
    if isinstance(sym, Terminal):
        return sym.value.semiring.render(sym.value)
    if isinstance(sym, VarTerminal):
        return sym.var
    return f"{sym.var}^{sym.index}"


class LinearCfg(_Record):
    """Rules per indexed nonterminal, linear along each layer.

    Within one right-hand side at most one nonterminal carries the same
    index as the left-hand side; nonterminals one index below act as
    already-solved plugs.  `level` is set on complete ladders, where
    indices run through [1, 2^level], and is None for shifted fragments.
    """

    def __init__(
        self,
        semiring: Semiring,
        variables: tuple[str, ...],
        level: int | None,
        rules: dict[NonTerm, tuple[tuple[LSym, ...], ...]],
    ):
        self.semiring = semiring
        self.variables = variables
        self.level = level
        self.rules = rules

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


def _layer_expansion(rules, keys, budget, spent):
    """Distinct fully expanded words of one layer per key, breadth first.

    Words are coded: a negative int ~k is a spine symbol, which expands
    to the words rules[k], and any other symbol is an opaque plug.  Key
    k starts from the word (~k,).  Works without idempotence: every
    distinct sentential form counts once, and expansion always rewrites
    the leftmost spine symbol.  `spent` counts expansions across calls;
    at `budget` the layer stops unfinished, flagged.  Finishes when the
    spine graph is acyclic.  Returns the finished words per key, in key
    order.
    """
    words = []
    ok = True
    for k in keys:
        start = (~k,)
        seen = {start}
        queue = deque([start])
        finished = []
        words.append(finished)
        while queue:
            form = queue.popleft()
            for pos, s in enumerate(form):
                if s.__class__ is int and s < 0:
                    break
            else:
                finished.append(form)
                continue
            if spent[0] >= budget:
                ok = False
                continue
            spent[0] += 1
            head, tail = form[:pos], form[pos + 1 :]
            for word in rules[~s]:
                nxt = head + word + tail
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return words, ok


def evaluate_grammar(
    lg: LinearCfg, b: Mapping[str, Value], budget: int | None = None
) -> SolveOutcome:
    """Value vector of a ladder grammar at an argument vector.

    Layers are solved bottom up on payloads; each sees the ones below
    as finished constants.  A layer's words are coded once: its own
    nonterminal k as k, every other symbol as a plug (payload, number
    of the symbol), so that symbols of equal value stay distinct words.
    Idempotent instances iterate the layer's rows (`_word_rows`) as a
    linear system; others sum its distinct expansions, k coded ~k for
    `_layer_expansion`, so that repeated words are not double counted.
    """
    if lg.level is None:
        raise InvariantError("can only evaluate complete ladders")
    if not set(lg.variables) <= set(b):
        raise InvariantError("argument vector must cover every variable")
    sr = lg.semiring
    at = {x: _payload(sr, b[x]) for x in lg.variables}
    solved: dict[NonTerm, object] = {}
    ids: dict[LSym, int] = {}

    def plug(s: LSym, layer: int) -> tuple:
        if isinstance(s, Terminal):
            p = _payload(sr, s.value)
        elif isinstance(s, VarTerminal):
            p = at[s.var]
        elif s.index >= layer:
            raise InvariantError(f"{render_lsym(s)} is not below layer {layer}")
        else:
            p = solved[s]
        return p, ids.setdefault(s, len(ids))

    steps = 0
    status = STABILIZED
    spent = [0]
    for layer in sorted({nt.index for nt in lg.rules}):
        keys = [nt for nt in lg.rules if nt.index == layer]
        code = {nt: k if sr.is_idempotent else ~k for k, nt in enumerate(keys)}
        words = [
            [tuple(code[s] if s in code else plug(s, layer) for s in word) for word in lg.rules[nt]]
            for nt in keys
        ]
        if sr.is_idempotent:
            rows, constants = _word_rows(sr, words)
            if any(len(factors) > 1 for row in rows for _, factors in row):
                raise InvariantError(f"a rule of layer {layer} holds two nonterminals of its layer")
            values, layer_status, used = _iterate(sr, rows, constants, budget)
            ok = layer_status == STABILIZED
            steps += used
        else:
            words, ok = _layer_expansion(
                words,
                range(len(keys)),
                DEFAULT_EXPANSION_BUDGET if budget is None else budget,
                spent,
            )
            values = _word_rows(sr, words)[1]
            steps = spent[0]
        solved.update(zip(keys, values))
        if not ok:
            status = BUDGET_EXHAUSTED
    top = 2**lg.level
    return SolveOutcome(
        {v: Value(sr, solved[NonTerm(v, top)]) for v in lg.variables}, status, steps
    )


def _check_b_vector(sys: EquationSystem, b: Mapping[str, Value], budget: int | None):
    """Warn when b leaves the bracket between the constants and the solution.

    The solution is plain iteration's within `budget` rounds
    (`DEFAULT_KLEENE_BUDGET` when None); if it does not stabilize there,
    the warning says that b cannot be verified.
    """
    lfp = kleene_solve(sys, budget)
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

    Every instance reads iterate k as S^(2^k)(b) off one payload chain
    b, S(b), S(S(b)), ... (`solver.sample_chain`), so the ladder remains
    only behind `grammar` and the oracles.  Over idempotent instances S
    is the completion step, and `budget` bounds each linear solve.
    Otherwise S applies the completion grammar's word sums: its words
    are coded from the compiled rows (variable j as the plug j, its
    spine as ~j, a coefficient as a 1-tuple), expanded once in c
    expansions (`_layer_expansion`) and written once as payload rows
    (`_word_rows`); no grammar symbol is built.  Iterate k exists only
    if 2^k * c <= budget, as for its ladder; a cycle of spines exhausts
    any budget, so it is reported before expanding.  The default b is
    the constant part; a custom one must cover exactly the variables,
    and a warning says when it lies outside [constants, least solution]
    or when plain iteration does not stabilize within the same budget.
    On budget exhaustion the finished prefix is returned, flagged.
    """
    if b is not None:
        sys.payloads(b)  # a missing or an extra variable is an InvariantError
        _check_b_vector(sys, b, budget)
    if sys.semiring.is_idempotent:
        return sample_chain(sys, _chain_step(sys, budget), b, n, lambda k: 1 << k)
    # A spine cycle (y -> z when z occurs in f[y]) spells ever longer
    # words, so the expansion could never finish: prune leaves to find one.
    rows = sys.compiled[0]
    live = set(range(len(rows)))
    while leaves := {y for y in live if live.isdisjoint(z for _, fs in rows[y] for z, _ in fs)}:
        live -= leaves
    sr, step, top = sys.semiring, None, -1  # top: last iterate whose ladder fits the budget
    if not live:
        # per monomial and occurrence, (c0,) j1 (c1,) ... with that occurrence
        # as ~j, then the closing word (y,); a unit is spelled (one,), as the
        # grammar spells it, so that the same words count once
        one, rules = (sr._one(),), []
        for y, row in enumerate(rows):
            rule = []
            for c0, factors in row:
                spelled = [one if c0 is None else (c0,)]
                for j, c in factors:
                    spelled += (j, one if c is None else (c,))
                for pos in range(1, len(spelled), 2):
                    spelled[pos] = ~spelled[pos]
                    rule.append(tuple(spelled))
                    spelled[pos] = ~spelled[pos]
            rule.append((y,))
            rules.append(rule)
        budget = DEFAULT_EXPANSION_BUDGET if budget is None else budget
        spent = [0]
        words, ok = _layer_expansion(rules, range(len(rows)), budget, spent)
        while ok and top < n and spent[0] << (top + 1) <= budget:
            top += 1
    if top >= 0:  # otherwise the chain takes no step
        step = partial(_apply, sr, *_word_rows(sr, words))
    return sample_chain(sys, step, b, n, lambda k: 1 << k, top)


class IndexedGrammar(_Record):
    """One rule set driving every layer through a unary stack.

    The recursion words are the completion grammar's, without its
    closing rule: `NonTerm(v, 1)` keeps the full stack, `VarTerminal(v)`
    continues one stack level down, and `Terminal`s ignore the stack.
    Each variable also has one implicit pop rule: with symbols left the
    nonterminal drops one, on the empty stack it becomes the plain
    variable.  The rule count never depends on how many layers get
    expanded.
    """

    def __init__(
        self,
        semiring: Semiring,
        variables: tuple[str, ...],
        recursion: dict[str, tuple[tuple[LSym, ...], ...]],
    ):
        self.semiring = semiring
        self.variables = variables
        self.recursion = recursion


def indexed_grammar_of(sys: EquationSystem) -> IndexedGrammar:
    """Fold the whole ladder into stack-indexed rules.

    They are the rules of `linear_completion_grammar` with the closing
    rule of each variable dropped, since the pop rule takes its place.
    """
    lg = linear_completion_grammar(sys)
    recursion = {y: lg.rules[NonTerm(y, 1)][:-1] for y in sys.variables}
    return IndexedGrammar(sys.semiring, sys.variables, recursion)


def _unfold_sym(sym: LSym, layer: int) -> LSym:
    if isinstance(sym, NonTerm):
        return NonTerm(sym.var, layer)
    if isinstance(sym, VarTerminal) and layer > 1:
        return NonTerm(sym.var, layer - 1)
    return sym


def expand_indexed(ig: IndexedGrammar, n: int) -> LinearCfg:
    """Unfold stacks of height up to 2^n into an explicit ladder."""
    if n < 0:
        raise InvariantError("expansion count must be nonnegative")
    rules: dict[NonTerm, tuple[tuple[LSym, ...], ...]] = {}
    for layer in range(1, 2**n + 1):
        for y in ig.variables:
            words = [tuple(_unfold_sym(s, layer) for s in rule) for rule in ig.recursion[y]]
            words.append((_unfold_sym(VarTerminal(y), layer),))
            rules[NonTerm(y, layer)] = tuple(words)
    return LinearCfg(ig.semiring, ig.variables, n, rules)


def canonical_form(lg: LinearCfg):
    """Order-insensitive shape of a ladder, for comparing constructions."""
    shape = []
    for lhs in sorted(lg.rules, key=lambda nt: (nt.var, nt.index)):
        words = sorted(" ".join(render_lsym(s) for s in word) for word in lg.rules[lhs])
        shape.append(((lhs.var, lhs.index), tuple(words)))
    return tuple(shape)


def completion_function_table(
    sys: EquationSystem, max_points: int | None = None
) -> dict[str, Value]:
    """The completion as explicit tables over a finite instance.

    One completion step over the pointwise table instance, taken at the
    projections, so the result maps every argument vector at once; its
    rows are the system's, each payload p as the constant table of p.  A
    table has |carrier|^|variables| points; when that count, taken
    before anything is built, exceeds `max_points` (default
    DEFAULT_TABLE_POINTS) the budget is exhausted.
    """
    sr = sys.semiring
    if sr.is_finite:
        limit = DEFAULT_TABLE_POINTS if max_points is None else max_points
        size, points = sr.size(), 1
        for _ in sys.variables:
            points *= size
            if points > limit:
                raise BudgetExhaustedError(
                    f"a completion table over {sr.name} in {len(sys.variables)} "
                    f"variables has more than {limit} points"
                )
    fs = make_function_semiring(sr, sys.variables)
    width = len(fs.points)

    def table(p):
        return None if p is None else (p,) * width

    rows, constants = sys.compiled
    tables = EquationSystem._of_rows(
        fs,
        sys.variables,
        tuple(
            tuple((table(c0), tuple((j, table(c)) for j, c in factors)) for c0, factors in row)
            for row in rows
        ),
        [table(p) for p in constants],
    )
    out = newton_step(tables, {y: fs.projection(y) for y in sys.variables})
    if not out.stabilized:
        raise BudgetExhaustedError("table solve did not stabilize")
    return out.value


def lincfg_to_json(lg: LinearCfg) -> dict:
    def sym(s: LSym):
        if isinstance(s, Terminal):
            return {"kind": "value", "value": render_lsym(s)}
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
    def sym(s: LSym):
        if isinstance(s, Terminal):
            return {"kind": "value", "value": render_lsym(s)}
        if isinstance(s, VarTerminal):
            return {"kind": "variable", "name": s.var, "stack": "pop"}
        return {"kind": "spine", "name": s.var, "stack": "keep"}

    return {
        "variables": list(ig.variables),
        "recursion": [
            {"lhs": y, "rhs": [sym(s) for s in word]}
            for y, words in ig.recursion.items()
            for word in words
        ],
        "pop": list(ig.variables),
    }

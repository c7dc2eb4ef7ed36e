"""Derivation trees for equation systems read as grammars.

Each equation x = m_1 + ... + m_k becomes the productions x -> w(m_i),
where w(m) spells the monomial out as a word over coefficients and
variables, units included.  Trees built from these productions carry a
dimension, a measure of how balanced they are, and their yields multiply
out to values again.  `tree_sum` sums the yields of the trees of bounded
dimension exactly, one linear solve per dimension; `enumerate_trees`
lists small trees one by one, its brute-force reference.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Mapping, Union

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    Monomial,
    equation_system,
    monomial,
    polynomial,
)
from semifix.semiring import Semiring, Value, add, mul_all
from semifix.solver import DEFAULT_NODE_BUDGET, solve_linear


@dataclass(frozen=True)
class Lit:
    """A terminal symbol holding one semiring value."""

    value: Value


@dataclass(frozen=True)
class Ref:
    """A nonterminal symbol naming a system variable."""

    var: str


Symbol = Union[Lit, Ref]


@dataclass
class Cfg:
    """Productions per variable, kept in declaration order."""

    semiring: Semiring
    nonterminals: tuple[str, ...]
    rules: dict[str, tuple[tuple[Symbol, ...], ...]]


def _word_of(sr: Semiring, m: Monomial) -> tuple[Symbol, ...]:
    return tuple(Lit(f) if isinstance(f, Value) else Ref(f) for f in m.factors())


def grammar_of(sys: EquationSystem) -> Cfg:
    """Productions from the variable parts only."""
    rules = {
        x: tuple(_word_of(sys.semiring, m) for m in sys.f[x].monomials)
        for x in sys.variables
    }
    return Cfg(sys.semiring, sys.variables, rules)


def grammar_with_constants(sys: EquationSystem) -> Cfg:
    """Productions from the variable parts plus one constant rule per variable."""
    g = grammar_of(sys)
    rules = {
        x: g.rules[x] + ((Lit(sys.a[x]),),) for x in sys.variables
    }
    return Cfg(sys.semiring, sys.variables, rules)


@dataclass(frozen=True)
class DerivationTree:
    """A node labelled by a symbol.

    Leaves have no children.  An inner node is a nonterminal expanded by
    the rule with `rule_index` in its variable's production list, and its
    children spell that rule's right-hand side.
    """

    symbol: Symbol
    children: tuple["DerivationTree", ...] = ()
    rule_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


def leaf(symbol: Symbol) -> DerivationTree:
    return DerivationTree(symbol)


def node(var: str, rule_index: int, children: tuple[DerivationTree, ...]) -> DerivationTree:
    return DerivationTree(Ref(var), children, rule_index)


def tree_nodes(t: DerivationTree) -> int:
    return 1 + sum(tree_nodes(c) for c in t.children)


def dimension(t: DerivationTree) -> int:
    """Balance measure: leaves weigh nothing, ties among children bump it.

    A node takes the largest child dimension, plus one when at least two
    children reach that largest value together.
    """
    if t.is_leaf:
        return 0
    dims = sorted((dimension(c) for c in t.children), reverse=True)
    if len(dims) >= 2 and dims[0] == dims[1]:
        return dims[0] + 1
    return dims[0]


def yield_word(t: DerivationTree) -> tuple[Symbol, ...]:
    """Leaf symbols left to right."""
    if t.is_leaf:
        return (t.symbol,)
    out: tuple[Symbol, ...] = ()
    for c in t.children:
        out += yield_word(c)
    return out


def yield_value(t: DerivationTree, sr: Semiring, complete: bool = True) -> Monomial:
    """The yield multiplied back into a monomial.

    With `complete` set, a nonterminal leaf is an error; otherwise it
    stays as a variable in the result.
    """
    factors = []
    for sym in yield_word(t):
        if isinstance(sym, Lit):
            factors.append(sym.value)
        else:
            if complete:
                raise InvariantError(
                    f"tree is not complete: nonterminal leaf {sym.var!r}"
                )
            factors.append(sym.var)
    return monomial(sr, factors)


def enumerate_trees(
    g: Cfg,
    root: str,
    max_nodes: int,
    max_dim: int | None = None,
    complete_only: bool = False,
) -> list[DerivationTree]:
    """All derivation trees from one variable within the stated bounds.

    Ordered by node count first, then rule declaration order, then child
    size splits.  With `complete_only` every nonterminal gets expanded;
    otherwise nonterminal leaves are allowed anywhere.  Exact but
    exponential, meant for small bounds.
    """
    if root not in g.rules:
        raise InvariantError(f"unknown variable {root!r}")

    # tables[(symbol, n)] = list of (tree, dim) with exactly n nodes
    tables: dict[tuple[Symbol, int], list[tuple[DerivationTree, int]]] = {}
    sizes: dict[Symbol, list[int]] = {}
    symbols: set[Symbol] = {Ref(x) for x in g.nonterminals}
    for words in g.rules.values():
        for word in words:
            symbols.update(word)

    def expansions(word, r, var, n, entries):
        k = len(word)

        def build(i, remaining, kids, dmax, cnt):
            if i == k:
                if remaining:
                    return
                d = dmax + 1 if cnt >= 2 else dmax
                if max_dim is None or d <= max_dim:
                    entries.append((node(var, r, kids), d))
                return
            direct = k - 1 - i  # later children eat at least one node each
            for s in sizes.get(word[i], ()):
                if s > remaining - direct:
                    break
                for t, d in tables[(word[i], s)]:
                    build(i + 1, remaining - s, kids + (t,), *_fold_dim(dmax, cnt, d))

        if k <= n - 1:
            build(0, n - 1, (), 0, 0)

    for n in range(1, max_nodes + 1):
        for sym in symbols:
            entries: list[tuple[DerivationTree, int]] = []
            if n == 1:
                if isinstance(sym, Lit) or not complete_only:
                    entries.append((leaf(sym), 0))
            elif isinstance(sym, Ref):
                for r, word in enumerate(g.rules.get(sym.var, ())):
                    expansions(word, r, sym.var, n, entries)
            tables[(sym, n)] = entries
            if entries:
                sizes.setdefault(sym, []).append(n)

    out = []
    for n in range(1, max_nodes + 1):
        out.extend(t for t, _ in tables[(Ref(root), n)])
    return out


def _fold_dim(dmax: int, cnt: int, d: int) -> tuple[int, int]:
    """Update the running (largest child dim, how often it was hit)."""
    if d > dmax:
        return d, 1
    if d == dmax:
        return dmax, min(2, cnt + 1)
    return dmax, cnt


TreeSumResult = namedtuple("TreeSumResult", "value stabilized")


def tree_sum(
    g: Cfg,
    root: str,
    dim_bound: int,
    complete_only: bool = True,
    at: Mapping[str, Value] | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> TreeSumResult:
    """Sum of yields over trees of dimension at most `dim_bound`, exactly.

    Layer k holds Y_k(s), the sum over trees of symbol s of dimension
    exactly k; L_k(s) = Y_0(s) + ... + Y_k(s), and L_{-1}(s) is zero.  A
    literal is Y_0 = its value.  Without `complete_only` a nonterminal
    leaf adds its `at` value to Y_0.  A node expanding x by the rule
    s_1 ... s_m has dimension k in one of two disjoint ways: one child
    has dimension k and the others less,

        sum_i L_{k-1}(s_<i) Y_k(s_i) L_{k-1}(s_>i),

    or the first two children that reach the maximum have dimension k-1,

        sum_{i<j} L_{k-2}(s_<i) Y_{k-1}(s_i) L_{k-2}(s_i+1 ... s_j-1)
                  Y_{k-1}(s_j) L_{k-1}(s_>j),

    where a product over a sequence keeps its order.  Given the layers
    below it, layer k is a two-sided linear system in Y_k, solved by
    `solve_linear` within `node_budget` rounds.  The sum is stabilized
    when every layer's solve stabilized; otherwise it adds up the
    iterates the exhausted solves reached.
    """
    if root not in g.rules:
        raise InvariantError(f"unknown variable {root!r}")
    sums, stabilized = _tree_sums(g, dim_bound, complete_only, at, node_budget)
    return TreeSumResult(sums[root], stabilized)


def _tree_sums(
    g: Cfg,
    dim_bound: int,
    complete_only: bool,
    at: Mapping[str, Value] | None,
    node_budget: int,
) -> tuple[dict[str, Value], bool]:
    """`tree_sum` of every nonterminal at once, and whether every layer's solve stabilized."""
    if not complete_only:
        if at is None:
            raise InvariantError("open trees need an `at` vector for nonterminal leaves")
        if not set(g.nonterminals) <= set(at):
            raise InvariantError("`at` vector must cover every nonterminal")
    sr = g.semiring
    zero = sr.zero()
    layers: list[dict[str, Value]] = []  # Y_0, Y_1, ... per nonterminal
    sums: list[dict[str, Value]] = []  # L_0, L_1, ... per nonterminal

    def exactly(k: int, s: Symbol) -> Value:
        """Y_k(s) of a literal, or of a nonterminal in a layer already solved."""
        if isinstance(s, Lit):
            return s.value if k == 0 else zero
        return layers[k][s.var] if k >= 0 else zero

    def at_most(k: int, word: tuple[Symbol, ...]) -> Value:
        """The product of L_k over the word."""
        if k < 0:
            return zero if word else sr.one()
        return mul_all(sr, (s.value if isinstance(s, Lit) else sums[k][s.var] for s in word))

    stabilized = True
    for k in range(dim_bound + 1):
        rhs = {}
        for x in g.nonterminals:
            terms = [monomial(sr, [at[x]])] if k == 0 and not complete_only else []
            for word in g.rules[x]:
                for i, s in enumerate(word):
                    own = s.var if isinstance(s, Ref) else exactly(k, s)
                    left, right = at_most(k - 1, word[:i]), at_most(k - 1, word[i + 1 :])
                    terms.append(monomial(sr, [left, own, right]))
                    for j in range(i + 1, len(word)):
                        pair = [at_most(k - 2, word[:i]), exactly(k - 1, s)]
                        pair += [at_most(k - 2, word[i + 1 : j]), exactly(k - 1, word[j])]
                        terms.append(monomial(sr, pair + [at_most(k - 1, word[j + 1 :])]))
            rhs[x] = polynomial(sr, terms)
        out = solve_linear(equation_system(sr, g.nonterminals, rhs), node_budget)
        stabilized = stabilized and out.stabilized
        layers.append(out.value)
        sums.append({x: add(sums[-1][x], v) if sums else v for x, v in out.value.items()})
    return (sums[-1] if sums else dict.fromkeys(g.nonterminals, zero)), stabilized


def decompose(t: DerivationTree, m: int) -> tuple[DerivationTree, list[DerivationTree]]:
    """Split a tree of dimension 2m into an outer tree and grafted parts.

    Maximal subtrees of dimension at most m are cut off and replaced by
    leaves keeping their root symbols; the remaining outer tree and every
    part then have dimension at most m, and grafting the parts back onto
    the outer tree's leaves left to right restores the input.
    """
    dims: dict[int, int] = {}

    def dim_of(s: DerivationTree) -> int:
        key = id(s)
        if key not in dims:
            if s.is_leaf:
                dims[key] = 0
            else:
                child_dims = sorted((dim_of(c) for c in s.children), reverse=True)
                bump = len(child_dims) >= 2 and child_dims[0] == child_dims[1]
                dims[key] = child_dims[0] + 1 if bump else child_dims[0]
        return dims[key]

    if dim_of(t) != 2 * m:
        raise InvariantError(f"tree has dimension {dim_of(t)}, expected {2 * m}")

    parts: list[DerivationTree] = []

    def cut(s: DerivationTree) -> DerivationTree:
        if dim_of(s) <= m:
            parts.append(s)
            return leaf(s.symbol)
        return replace(s, children=tuple(cut(c) for c in s.children))

    return cut(t), parts


def regraft(outer: DerivationTree, parts: list[DerivationTree]) -> DerivationTree:
    """Replace the outer tree's leaves left to right by the given parts."""
    remaining = list(parts)

    def fill(s: DerivationTree) -> DerivationTree:
        if s.is_leaf:
            if not remaining:
                raise InvariantError("fewer parts than leaves")
            part = remaining.pop(0)
            if part.symbol != s.symbol:
                raise InvariantError("part root does not match leaf symbol")
            return part
        return replace(s, children=tuple(fill(c) for c in s.children))

    out = fill(outer)
    if remaining:
        raise InvariantError("more parts than leaves")
    return out


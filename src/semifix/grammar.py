"""Derivation trees for equation systems read as grammars.

Each equation x = m_1 + ... + m_k becomes the productions x -> w(m_i),
where w(m) spells the monomial out as a word over coefficients and
variables, units included.  Trees built from these productions carry a
dimension, a measure of how balanced they are, and their yields multiply
out to values again.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Mapping, Union

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    Monomial,
    monomial,
)
from semifix.semiring import Semiring, Value, add, add_all, mul


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

DEFAULT_NODE_BUDGET = 5_000
INITIAL_NODE_BUDGET = 8
PLATEAU_WINDOW = 3  # unchanged growth rounds that make a tree sum stabilized


class _TreeAggregator:
    """Sums tree yields grouped by exact node count without building trees.

    Tables map (symbol, node count) to {dimension: summed value}; per
    rule prefix tables fold children left to right so products respect
    the symbol order.  Dimensions above the bound are pruned eagerly,
    except that a tied pair sitting exactly at the bound is kept out too
    since its parent would overshoot.
    """

    def __init__(self, g: Cfg, dim_bound: int, complete_only: bool, at):
        self.g = g
        self.sr = g.semiring
        self.dim_bound = dim_bound
        self.complete_only = complete_only
        self.at = at
        self.filled_to = 0
        self.tables: dict[tuple[Symbol, int], dict[int, Value]] = {}
        # prefix[(var, rule, i)][nodes] = {(dmax, cnt): value}
        self.prefix: dict[tuple[str, int, int], dict[int, dict]] = {}
        for x in g.nonterminals:
            for r, word in enumerate(g.rules[x]):
                for i in range(len(word) + 1):
                    self.prefix[(x, r, i)] = {}
                self.prefix[(x, r, 0)][0] = {(-1, 0): self.sr.one()}

    def _leaf_table(self, sym: Symbol) -> dict[int, Value]:
        if isinstance(sym, Lit):
            return {0: sym.value}
        if not self.complete_only:
            return {0: self.at[sym.var]}
        return {}

    def extend(self, n_max: int):
        g, sr = self.g, self.sr
        symbols: set[Symbol] = {Ref(x) for x in g.nonterminals}
        for words in g.rules.values():
            for word in words:
                symbols.update(word)
        for n in range(self.filled_to + 1, n_max + 1):
            if n == 1:
                for sym in symbols:
                    self.tables[(sym, 1)] = self._leaf_table(sym)
                continue
            # extend every rule prefix to n - 1 consumed nodes
            for x in g.nonterminals:
                for r, word in enumerate(g.rules[x]):
                    for i in range(1, len(word) + 1):
                        self._extend_prefix(x, r, i, word[i - 1], n - 1)
            for sym in symbols:
                table: dict[int, Value] = {}
                if isinstance(sym, Ref):
                    for r, word in enumerate(g.rules.get(sym.var, ())):
                        states = self.prefix[(sym.var, r, len(word))].get(n - 1, {})
                        for (dmax, cnt), val in states.items():
                            d = dmax + 1 if cnt >= 2 else dmax
                            if d > self.dim_bound:
                                continue
                            table[d] = add(table[d], val) if d in table else val
                self.tables[(sym, n)] = table
        self.filled_to = max(self.filled_to, n_max)

    def _extend_prefix(self, x: str, r: int, i: int, child: Symbol, m: int):
        """Fill prefix table i at exactly m consumed nodes."""
        target = self.prefix[(x, r, i)]
        if m in target:
            return
        acc: dict = {}
        before = self.prefix[(x, r, i - 1)]
        min_before = i - 1  # each earlier child ate at least one node
        for used in range(min_before, m):
            states = before.get(used)
            if not states:
                continue
            child_table = self.tables.get((child, m - used))
            if not child_table:
                continue
            for (dmax, cnt), val in states.items():
                for d, cval in child_table.items():
                    ndmax, ncnt = _fold_dim(dmax, cnt, d)
                    if ndmax > self.dim_bound or (
                        ndmax == self.dim_bound and ncnt >= 2
                    ):
                        continue
                    key = (ndmax, ncnt)
                    prod = mul(val, cval)
                    acc[key] = add(acc[key], prod) if key in acc else prod
        target[m] = acc

    def total(self, root: str, n_max: int) -> Value:
        parts = []
        for n in range(1, n_max + 1):
            parts.extend(self.tables.get((Ref(root), n), {}).values())
        return add_all(self.sr, parts)


def tree_sum(
    g: Cfg,
    root: str,
    dim_bound: int,
    complete_only: bool = True,
    at: Mapping[str, Value] | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> TreeSumResult:
    """Sum of yields over trees within a dimension bound.

    Aggregates by node count from `INITIAL_NODE_BUDGET` nodes up and
    grows the count budget by a quarter per round; once `PLATEAU_WINDOW`
    consecutive rounds leave the total unchanged the sum is reported as
    stabilized.  That verdict is a plateau heuristic, not a proof.
    Without `complete_only` an `at` vector supplies values for
    nonterminal leaves.
    """
    if root not in g.rules:
        raise InvariantError(f"unknown variable {root!r}")
    if not complete_only:
        if at is None:
            raise InvariantError("open trees need an `at` vector for nonterminal leaves")
        if not set(g.nonterminals) <= set(at):
            raise InvariantError("`at` vector must cover every nonterminal")
    agg = _TreeAggregator(g, dim_bound, complete_only, at)
    budget = min(INITIAL_NODE_BUDGET, node_budget)
    agg.extend(budget)
    total = agg.total(root, budget)
    streak = 0
    while budget < node_budget:
        budget = min(node_budget, max(budget + 1, budget + budget // 4))
        agg.extend(budget)
        nxt = agg.total(root, budget)
        streak = streak + 1 if nxt == total else 0
        total = nxt
        if streak >= PLATEAU_WINDOW:
            return TreeSumResult(total, True)
    return TreeSumResult(total, False)


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


"""Derivation trees for equation systems read as grammars.

Each equation x = m_1 + ... + m_k becomes the productions x -> w(m_i),
where w(m) spells the monomial out as a word over coefficients and
variables, units included.  Trees built from these productions carry a
dimension, a measure of how balanced they are, and their yields multiply
out to values again.  `tree_sum` sums the yields of the trees of bounded
dimension exactly, one linear solve on payload rows per dimension until
the sums are final; `enumerate_trees` lists small trees one by one, its
brute-force reference.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    Monomial,
    _payload,
    _word_rows,
)
from semifix.semiring import Semiring, Value, _Frozen, _Record
from semifix.solver import DEFAULT_NODE_BUDGET, STABILIZED, _iterate


class Lit(_Frozen):
    """A terminal symbol holding one semiring value."""

    def __init__(self, value: Value):
        vars(self).update(value=value)


class Ref(_Frozen):
    """A nonterminal symbol naming a system variable."""

    def __init__(self, var: str):
        vars(self).update(var=var)


Symbol = Lit | Ref


class Cfg(_Record):
    """Productions per variable, kept in declaration order."""

    def __init__(
        self,
        semiring: Semiring,
        nonterminals: tuple[str, ...],
        rules: dict[str, tuple[tuple[Symbol, ...], ...]],
    ):
        self.semiring = semiring
        self.nonterminals = nonterminals
        self.rules = rules


def _word_of(m: Monomial) -> tuple[Symbol, ...]:
    return tuple(Lit(f) if isinstance(f, Value) else Ref(f) for f in m.factors())


def grammar_of(sys: EquationSystem) -> Cfg:
    """Productions from the variable parts only."""
    rules = {x: tuple(_word_of(m) for m in sys.f[x].monomials) for x in sys.variables}
    return Cfg(sys.semiring, sys.variables, rules)


def grammar_with_constants(sys: EquationSystem) -> Cfg:
    """Productions from the variable parts plus one constant rule per variable."""
    g = grammar_of(sys)
    rules = {
        x: g.rules[x] + ((Lit(sys.a[x]),),) for x in sys.variables
    }
    return Cfg(sys.semiring, sys.variables, rules)


class DerivationTree(_Frozen):
    """A node labelled by a symbol.

    Leaves have no children.  An inner node is a nonterminal expanded by
    the rule with `rule_index` in its variable's production list, and its
    children spell that rule's right-hand side.
    """

    def __init__(
        self,
        symbol: Symbol,
        children: tuple[DerivationTree, ...] = (),
        rule_index: int | None = None,
    ):
        vars(self).update(symbol=symbol, children=children, rule_index=rule_index)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def leaf(symbol: Symbol) -> DerivationTree:
    return DerivationTree(symbol)


def node(var: str, rule_index: int, children: tuple[DerivationTree, ...]) -> DerivationTree:
    return DerivationTree(Ref(var), children, rule_index)


def dimension(t: DerivationTree) -> int:
    """Balance measure: leaves weigh nothing, ties among children bump it.

    A node takes the largest child dimension, plus one when at least two
    children reach that largest value together.
    """
    return _dimensions(t)[id(t)]


def _dimensions(t: DerivationTree) -> dict[int, int]:
    """The dimension of every subtree of t, keyed by its `id`, bottom up.

    Children fold into a node's dimension as `enumerate_trees` folds
    them (`_fold_dim`); a subtree shared by several parents is measured
    once.
    """
    dims: dict[int, int] = {}

    def measure(s: DerivationTree) -> int:
        key = id(s)
        if key not in dims:
            dmax = cnt = 0
            for c in s.children:
                dmax, cnt = _fold_dim(dmax, cnt, measure(c))
            dims[key] = dmax + 1 if cnt >= 2 else dmax
        return dims[key]

    measure(t)
    return dims


def yield_word(t: DerivationTree) -> tuple[Symbol, ...]:
    """Leaf symbols left to right."""
    if t.is_leaf:
        return (t.symbol,)
    out: tuple[Symbol, ...] = ()
    for c in t.children:
        out += yield_word(c)
    return out


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
    below it, layer k is a two-sided linear system in Y_k, iterated on
    payload rows within `node_budget` rounds; layers past the point
    where the sums are final are not solved (`_tree_sums`).  The sum is
    stabilized when every layer's solve stabilized; otherwise it adds up
    the iterates the exhausted solves reached.
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
    """`tree_sum` of every nonterminal at once, and whether every layer's solve stabilized.

    The rule words are coded once: nonterminal i as i, the literals
    after them.  Y_k-1, L_k-1 and L_k-2 are payload lists over the
    coded symbols, zero below layer 0; a layer's terms are written as
    coded words of their payloads around its own variables, and solved
    by `_iterate` on the rows `_word_rows` writes.  After a layer k >= 1
    whose solves so far all stabilized, the sums are final, and no later
    layer is solved, when Y_k is zero (every deeper tree holds a subtree
    of dimension exactly k, rooted at a nonterminal, and its weight as a
    factor) or, for complete trees over an idempotent instance, when
    L_k == L_k-1 (two equal Newton iterates).
    """
    if not complete_only:
        if at is None:
            raise InvariantError("open trees need an `at` vector for nonterminal leaves")
        if not set(g.nonterminals) <= set(at):
            raise InvariantError("`at` vector must cover every nonterminal")
    sr = g.semiring
    zero, n = sr._zero(), len(g.nonterminals)
    index = {x: i for i, x in enumerate(g.nonterminals)}
    lits = []  # the payload of each literal occurrence, coded n, n + 1, ...

    def code(s: Symbol) -> int:
        if isinstance(s, Ref):
            return index[s.var]
        lits.append(_payload(sr, s.value))
        return n + len(lits) - 1

    def plugs(values: list, part: tuple) -> list:
        return [(values[s],) for s in part]

    rules = [[tuple(map(code, word)) for word in g.rules[x]] for x in g.nonterminals]
    leaves = [] if complete_only else [((_payload(sr, at[x]),),) for x in g.nonterminals]
    none = [zero] * len(lits)
    y = below = lower = [zero] * (n + len(lits))  # Y_k-1, L_k-1, L_k-2
    stabilized = True
    for k in range(dim_bound + 1):
        own = none if k else lits  # Y_k of the literals
        words = []
        for x, rule in enumerate(rules):
            terms = [leaves[x]] if leaves and not k else []
            for word in rule:
                for i, s in enumerate(word):
                    mid = s if s < n else (own[s - n],)
                    terms.append(plugs(below, word[:i]) + [mid] + plugs(below, word[i + 1 :]))
                    for j in range(i + 1, len(word)):
                        pair = plugs(lower, word[:i]) + [(y[s],)] + plugs(lower, word[i + 1 : j])
                        terms.append(pair + [(y[word[j]],)] + plugs(below, word[j + 1 :]))
            words.append(terms)
        layer, status, _ = _iterate(sr, *_word_rows(sr, words), node_budget)
        stabilized = stabilized and status == STABILIZED
        sums = [sr._add(p, q) for p, q in zip(below, layer)]
        final = k and stabilized and (
            layer.count(zero) == n or complete_only and sr.is_idempotent and sums == below[:n]
        )
        y, below, lower = layer + own, sums + lits, below
        if final:
            break
    return dict(zip(g.nonterminals, (Value(sr, p) for p in below))), stabilized


def decompose(t: DerivationTree, m: int) -> tuple[DerivationTree, list[DerivationTree]]:
    """Split a tree of dimension 2m into an outer tree and grafted parts.

    Maximal subtrees of dimension at most m are cut off and replaced by
    leaves keeping their root symbols; the remaining outer tree and every
    part then have dimension at most m, and grafting the parts back onto
    the outer tree's leaves left to right restores the input.
    """
    dims = _dimensions(t)
    if dims[id(t)] != 2 * m:
        raise InvariantError(f"tree has dimension {dims[id(t)]}, expected {2 * m}")

    parts: list[DerivationTree] = []

    def cut(s: DerivationTree) -> DerivationTree:
        if dims[id(s)] <= m:
            parts.append(s)
            return leaf(s.symbol)
        return DerivationTree(s.symbol, tuple(cut(c) for c in s.children), s.rule_index)

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
        return DerivationTree(s.symbol, tuple(fill(c) for c in s.children), s.rule_index)

    out = fill(outer)
    if remaining:
        raise InvariantError("more parts than leaves")
    return out


"""Derivation trees: structure, dimension, enumeration, aggregated sums."""

import importlib
import random

import pytest

from gen import instances_for_order_tests, random_point, random_triangular_system
from semifix.cli import parse
from semifix.grammar import (
    Cfg,
    DerivationTree,
    Lit,
    Ref,
    decompose,
    dimension,
    enumerate_trees,
    grammar_of,
    grammar_with_constants,
    leaf,
    node,
    regraft,
    tree_sum,
    yield_word,
)
from semifix.polynomial import (
    InvariantError,
    equation_system,
    eval_monomial,
    monomial,
    poly_of_value,
    poly_of_var,
    polynomial,
)
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    InstanceMismatchError,
    add_all,
    relation_semiring,
)
from semifix.solver import kleene_solve, newton_solve

REL2 = relation_semiring(2)


def ct(n):
    return COUNTING.value(n)


def _nodes(t):
    return 1 + sum(_nodes(c) for c in t.children)


def _yield_monomial(t, sr):
    """The yield multiplied back into a monomial; a nonterminal leaf stays a variable."""
    return monomial(sr, [s.value if isinstance(s, Lit) else s.var for s in yield_word(t)])


def counting_system_xyz():
    return equation_system(
        COUNTING,
        ("x", "y", "z"),
        {
            "x": polynomial(COUNTING, [monomial(COUNTING, ["y", "y"])]),
            "y": poly_of_var(COUNTING, "z"),
            "z": poly_of_value(COUNTING, ct(2)),
        },
    )


def boolean_loop_system():
    """x = x*x + 1 over truth values; every sum is 1 but trees never run out."""
    return equation_system(
        BOOLEAN,
        ("x",),
        {
            "x": polynomial(
                BOOLEAN,
                [monomial(BOOLEAN, ["x", "x"]), monomial(BOOLEAN, [BOOLEAN.one()])],
            )
        },
    )


def test_grammar_words_spell_monomials_with_units():
    sys = counting_system_xyz()
    g = grammar_of(sys)
    one = ct(1)
    assert g.rules["x"] == ((Lit(one), Ref("y"), Lit(one), Ref("y"), Lit(one)),)
    assert g.rules["y"] == ((Lit(one), Ref("z"), Lit(one)),)
    assert g.rules["z"] == ()


def test_grammar_with_constants_appends_constant_rules():
    sys = counting_system_xyz()
    g = grammar_with_constants(sys)
    assert g.rules["z"] == ((Lit(ct(2)),),)
    assert g.rules["x"][-1] == (Lit(ct(0)),)
    assert len(g.rules["x"]) == 2


def test_dimension_of_small_shapes():
    a = leaf(Lit(ct(2)))
    assert dimension(a) == 0
    single = node("z", 0, (a,))
    assert dimension(single) == 0
    pair = node("x", 0, (a, a))
    assert dimension(pair) == 1
    balanced = node("x", 0, (pair, pair))
    assert dimension(balanced) == 2
    lopsided = node("x", 0, (balanced, a))
    assert dimension(lopsided) == 2


def test_unit_carriers_make_chains_count():
    # y -> 1 z 1 keeps three children, so even a chain step ties at zero
    sys = counting_system_xyz()
    g = grammar_with_constants(sys)
    z_tree = node("z", 0, (leaf(Lit(ct(2))),))
    y_tree = node("y", 0, (leaf(Lit(ct(1))), z_tree, leaf(Lit(ct(1)))))
    assert dimension(z_tree) == 0
    assert dimension(y_tree) == 1
    assert _nodes(y_tree) == 5
    assert yield_word(y_tree) == (Lit(ct(1)), Lit(ct(2)), Lit(ct(1)))
    assert _yield_monomial(y_tree, COUNTING) == monomial(COUNTING, [ct(2)])


def test_yield_value_on_open_trees():
    t = node("y", 0, (leaf(Lit(ct(1))), leaf(Ref("z")), leaf(Lit(ct(1)))))
    assert yield_word(t) == (Lit(ct(1)), Ref("z"), Lit(ct(1)))
    assert _yield_monomial(t, COUNTING) == monomial(COUNTING, ["z"])


def test_enumerate_single_node_is_the_unexpanded_root():
    sys = counting_system_xyz()
    g = grammar_with_constants(sys)
    trees = enumerate_trees(g, "x", max_nodes=1)
    assert trees == [leaf(Ref("x"))]
    assert enumerate_trees(g, "x", max_nodes=1, complete_only=True) == []


def test_enumerate_complete_trees_of_chain_system():
    sys = counting_system_xyz()
    g = grammar_with_constants(sys)
    z_trees = enumerate_trees(g, "z", max_nodes=10, complete_only=True)
    assert len(z_trees) == 1
    assert _nodes(z_trees[0]) == 2
    y_trees = enumerate_trees(g, "y", max_nodes=10, complete_only=True)
    assert [_nodes(t) for t in y_trees] == [2, 5]
    assert [dimension(t) for t in y_trees] == [0, 1]
    x_trees = enumerate_trees(g, "x", max_nodes=20, complete_only=True)
    # two y slots, each a constant leaf rule or the chain through z
    assert len(x_trees) == 1 + 4
    assert sorted(_nodes(t) for t in x_trees) == [2, 8, 11, 11, 14]
    # only the doubly grown tree ties its two tall children
    assert sorted(dimension(t) for t in x_trees) == [0, 1, 1, 1, 2]


def test_enumerate_respects_dimension_cap():
    sys = counting_system_xyz()
    g = grammar_with_constants(sys)
    trees = enumerate_trees(g, "x", max_nodes=20, max_dim=1, complete_only=True)
    assert all(dimension(t) <= 1 for t in trees)
    assert len(trees) == 4
    assert enumerate_trees(g, "x", max_nodes=20, max_dim=0, complete_only=True) == [
        node("x", 1, (leaf(Lit(ct(0))),))
    ]


def test_enumerate_is_deterministic():
    sys = counting_system_xyz()
    g = grammar_with_constants(sys)
    a = enumerate_trees(g, "x", max_nodes=15)
    b = enumerate_trees(g, "x", max_nodes=15)
    assert a == b
    sizes = [_nodes(t) for t in a]
    assert sizes == sorted(sizes)


def enumeration_sum(g, root, dim_bound, max_nodes, sr, at=None):
    """Yield sum over explicitly enumerated trees, the slow exact way."""
    complete = at is None
    trees = enumerate_trees(g, root, max_nodes, max_dim=dim_bound, complete_only=complete)
    values = []
    for t in trees:
        m = _yield_monomial(t, sr)
        values.append(eval_monomial(m, at or {}))
    return add_all(sr, values)


def test_newton_iterates_match_bounded_dimension_tree_sums():
    # acyclic systems leave finitely many trees, so enumeration is exact
    rng = random.Random(101)
    for sr in instances_for_order_tests():
        for _ in range(12):
            sys = random_triangular_system(sr, rng, 3)
            g = grammar_with_constants(sys)
            out = newton_solve(sys, 3)
            assert out.stabilized
            for n in range(4):
                for x in sys.variables:
                    expected = enumeration_sum(g, x, n, 26, sr)
                    assert out.iterates[n][x] == expected


def test_tree_sum_matches_enumeration_on_acyclic_systems():
    rng = random.Random(103)
    for sr in instances_for_order_tests():
        for _ in range(10):
            sys = random_triangular_system(sr, rng, 3)
            g = grammar_with_constants(sys)
            for dim_bound in (0, 1, 2):
                for x in sys.variables:
                    expected = enumeration_sum(g, x, dim_bound, 26, sr)
                    got = tree_sum(g, x, dim_bound)
                    assert got.stabilized
                    assert got.value == expected


def test_tree_sum_open_trees_match_enumeration():
    rng = random.Random(107)
    for sr in (BOOLEAN, REL2):
        for _ in range(8):
            sys = random_triangular_system(sr, rng, 3)
            g = grammar_of(sys)
            at = random_point(sr, rng, sys.variables)
            for x in sys.variables:
                expected = enumeration_sum(g, x, 1, 26, sr, at=at)
                got = tree_sum(g, x, 1, complete_only=False, at=at)
                assert got.stabilized
                assert got.value == expected


def test_tree_sum_flags_unstable_budget():
    sys = boolean_loop_system()
    g = grammar_with_constants(sys)
    got = tree_sum(g, "x", 3, node_budget=1)
    assert not got.stabilized
    settled = tree_sum(g, "x", 3)
    assert settled.stabilized
    assert settled.value == BOOLEAN.one()


def chain_text(semiring, last):
    """x1 = x2; ...; x15 = x16; x16 = last; the first tree of x1 has 17 nodes."""
    names = [f"x{i}" for i in range(1, 17)]
    equations = "".join(f"{x} = {y};\n" for x, y in zip(names, names[1:]))
    return f"semiring {semiring};\nvars {' '.join(names)};\n{equations}x16 = {last};\n"


def test_tree_sum_reaches_the_end_of_a_long_chain():
    g = grammar_with_constants(parse(chain_text("boolean", "1")))
    for x in g.nonterminals:
        assert tree_sum(g, x, 1) == (BOOLEAN.one(), True), x


def test_tree_sum_finds_a_large_smallest_tree():
    # the smallest tree of z of dimension 2 has 20 nodes
    sys = parse(
        "semiring min-plus;\nvars x y z;\n"
        "x = 2*y*y + 9*z*z;\ny = 9*y + 8;\nz = 1*z*z*2 + x*2*x*7;\n"
    )
    g = grammar_with_constants(sys)
    assert newton_solve(sys, 2).iterates[2]["z"] == MIN_PLUS.value(45)
    for budget in (15, 200, 5000):
        assert tree_sum(g, "z", 2, node_budget=budget) == (MIN_PLUS.value(45), True), budget


def test_tree_sum_of_a_growing_cycle_is_not_stabilized():
    g = grammar_with_constants(parse(chain_text("counting", "x1 + 1")))
    assert not tree_sum(g, "x1", 1).stabilized


def test_tree_sum_requires_point_for_open_trees():
    sys = boolean_loop_system()
    g = grammar_of(sys)
    with pytest.raises(InvariantError):
        tree_sum(g, "x", 1, complete_only=False)
    with pytest.raises(InvariantError):
        tree_sum(g, "w", 1)
    # {z} is not a proper subset of {x}, yet it has no value for x
    with pytest.raises(InvariantError, match="cover"):
        tree_sum(g, "x", 1, complete_only=False, at={"z": BOOLEAN.one()})


def test_tree_sum_stops_after_a_zero_layer(monkeypatch):
    # every tree of x = y*y + 1; y = 2; has dimension at most 1, so layer 2 is zero
    grammar = importlib.import_module("semifix.grammar")
    solved = []
    iterate = grammar._iterate

    def counted(*args):
        solved.append(args)
        return iterate(*args)

    monkeypatch.setattr(grammar, "_iterate", counted)
    sys = parse("semiring counting;\nvars x y;\nx = y*y + 1;\ny = 2;\n")
    assert tree_sum(grammar_with_constants(sys), "x", 10**6) == (COUNTING.value(5), True)
    assert kleene_solve(sys).value["x"] == COUNTING.value(5)
    assert len(solved) == 3  # dimension layers 0, 1 and 2


def test_tree_sum_does_not_stop_at_a_zero_layer_0():
    # x -> 2 3 has one tree, of dimension 1: a literal leaf is a subtree of
    # dimension 0 that no nonterminal sums, so a zero layer 0 ends nothing
    for sr, left, right, product in ((COUNTING, 2, 3, 6), (BOOLEAN, True, True, True)):
        g = Cfg(sr, ("x",), {"x": ((Lit(sr.value(left)), Lit(sr.value(right))),)})
        assert tree_sum(g, "x", 0) == (sr.zero(), True)
        assert tree_sum(g, "x", 10**6) == (sr.value(product), True)


def test_a_foreign_point_for_open_trees_is_an_instance_mismatch():
    for sr, foreign in ((BOOLEAN, COUNTING.one()), (COUNTING, BOOLEAN.one())):
        sys = parse(f"semiring {sr.name};\nvars x y;\nx = y;\ny = 1;\n")
        with pytest.raises(InstanceMismatchError):
            tree_sum(grammar_of(sys), "x", 1, complete_only=False, at={"x": sr.one(), "y": foreign})


def even_dimension_trees(rng, count):
    """Sample complete trees of even dimension from random loop grammars."""
    out = []
    while len(out) < count:
        sys = random_triangular_system(BOOLEAN, rng, 3, max_monomials=2)
        g = grammar_with_constants(sys)
        trees = enumerate_trees(g, "x", max_nodes=24, complete_only=True)
        for t in trees:
            if dimension(t) % 2 == 0:
                out.append(t)
                if len(out) >= count:
                    break
    return out


def test_decompose_and_regraft_restore_the_tree():
    rng = random.Random(109)
    for t in even_dimension_trees(rng, 120):
        m = dimension(t) // 2
        outer, parts = decompose(t, m)
        assert regraft(outer, parts) == t
        assert dimension(outer) <= m
        assert all(dimension(p) <= m for p in parts)
        # cut points carry the symbols of the parts they came from
        assert [p.symbol for p in parts] == [s for s in yield_word(outer)]


def test_decompose_rejects_wrong_target():
    t = node("x", 0, (leaf(Lit(BOOLEAN.one())), leaf(Lit(BOOLEAN.one()))))
    assert dimension(t) == 1
    with pytest.raises(InvariantError):
        decompose(t, 0)


def test_regraft_validates_part_shapes():
    t = leaf(Ref("x"))
    with pytest.raises(InvariantError):
        regraft(t, [])
    with pytest.raises(InvariantError):
        regraft(t, [leaf(Ref("y"))])
    with pytest.raises(InvariantError):
        regraft(t, [leaf(Ref("x")), leaf(Ref("x"))])

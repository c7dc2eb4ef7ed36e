"""Completion grammars, index doubling, and accelerated iteration."""

import importlib
import random
import time
import warnings
from itertools import product

import pytest

from gen import (
    apply_rhs,
    instances_for_order_tests,
    random_point,
    random_system,
    random_triangular_system,
    table_at,
)
from semifix import solver
from semifix.cli import parse, render
from semifix.munchausen import (
    LinearCfg,
    NonTerm,
    Terminal,
    VarTerminal,
    canonical_form,
    check_linear,
    completion_function_table,
    completion_via_differential_star,
    evaluate_grammar,
    expand_indexed,
    index_shift,
    indexed_grammar_of,
    indexed_to_json,
    lincfg_to_json,
    linear_completion_grammar,
    left_linear_completion_grammar,
    munchausen_grammar,
    munchausen_sequence,
    render_lsym,
)
from semifix.polynomial import (
    InvariantError,
    equation_system,
    monomial,
    poly_of_value,
    poly_of_var,
    polynomial,
)
from semifix.grammar import grammar_of, grammar_with_constants, tree_sum
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    InstanceMismatchError,
    relation_semiring,
    vector_eq,
)
from semifix.solver import BudgetExhaustedError, kleene_solve, newton_solve, newton_step


def counting_chain():
    ct = COUNTING.value
    return equation_system(
        COUNTING,
        ("x", "y", "z"),
        {
            "x": polynomial(COUNTING, [monomial(COUNTING, ["y", "y"])]),
            "y": polynomial(COUNTING, [monomial(COUNTING, ["z"])]),
            "z": poly_of_value(COUNTING, ct(2)),
        },
    )


def rendered_rules(lg):
    return {
        render_lsym(lhs): [" ".join(render_lsym(s) for s in w) for w in words]
        for lhs, words in lg.rules.items()
    }


def test_completion_grammar_words_golden():
    lg = linear_completion_grammar(counting_chain())
    assert rendered_rules(lg) == {
        "x^1": ["1 y^1 1 y 1", "1 y 1 y^1 1", "x"],
        "y^1": ["1 z^1 1", "y"],
        "z^1": ["z"],
    }
    assert lg.level == 0
    assert lg.start("x") == NonTerm("x", 1)
    check_linear(lg)


def test_closing_rule_comes_last():
    rng = random.Random(3)
    for sr in instances_for_order_tests():
        sys = random_system(sr, rng, 3)
        lg = linear_completion_grammar(sys)
        for y in sys.variables:
            assert lg.rules[NonTerm(y, 1)][-1] == (VarTerminal(y),)


def test_index_shift_moves_layers_and_plugs():
    sr = COUNTING
    a = Terminal(sr.value(3))
    g = LinearCfg(
        sr,
        ("x", "y", "z"),
        0,
        {NonTerm("y", 1): ((a, VarTerminal("x"), NonTerm("z", 1)),)},
    )
    s = index_shift(g, 4)
    assert s.level is None
    assert s.rules == {
        NonTerm("y", 5): ((a, NonTerm("x", 4), NonTerm("z", 5)),)
    }
    assert index_shift(index_shift(g, 2), 3).rules == index_shift(g, 5).rules


def test_doubling_layer_counts():
    sys = counting_chain()
    for n in range(4):
        g = munchausen_grammar(sys, n)
        assert g.level == n
        assert len(g.rules) == 3 * 2**n
        indices = {nt.index for nt in g.rules}
        assert indices == set(range(1, 2**n + 1))
        assert g.start("x") == NonTerm("x", 2**n)
        check_linear(g)


def test_accelerated_sequence_golden():
    seq = munchausen_sequence(counting_chain(), 2)
    assert seq.stabilized
    got = [{v: out[v].payload for v in ("x", "y", "z")} for out in seq.iterates]
    assert got == [
        {"x": 0, "y": 2, "z": 2},
        {"x": 12, "y": 4, "z": 2},
        {"x": 104, "y": 8, "z": 2},
    ]


def test_sequence_squares_plain_completion():
    # the n-th accelerated iterate equals 2^n foldings of the completion
    sys = counting_chain()
    lg = linear_completion_grammar(sys)
    v = dict(sys.a)
    folds = [evaluate_grammar(lg, v).value]
    for _ in range(3):
        folds.append(evaluate_grammar(lg, folds[-1]).value)
    seq = munchausen_sequence(sys, 2)
    assert vector_eq(seq.iterates[0], folds[0])
    assert vector_eq(seq.iterates[1], folds[1])
    assert vector_eq(seq.iterates[2], folds[3])


def test_matches_newton_at_powers_of_two():
    rng = random.Random(17)
    for sr in instances_for_order_tests():
        for _ in range(25):
            sys = random_system(sr, rng, rng.randint(1, 3))
            seq = munchausen_sequence(sys, 2)
            nwt = newton_solve(sys, 4)
            assert seq.stabilized and nwt.stabilized
            for n in range(3):
                assert vector_eq(seq.iterates[n], nwt.iterates[2**n])


# Relation systems whose later completion steps need more linear
# iterations than the first, so a small budget cuts the sequence after
# a nonempty prefix.
LATE_CUT_SYSTEMS = (
    """semiring relation 2; vars x y z;
    x = [[0,1],[1,1]]*x + [[1,1],[1,0]]*y + x + [[1,0],[1,0]];
    y = [[1,0],[1,0]]*z*[[1,0],[0,0]]*z + y*y*[[1,1],[0,0]];
    z = [[0,1],[1,0]]*x*x + x*y;""",
    """semiring relation 2; vars x y;
    x = y*y + [[0,1],[1,0]]*x*x*[[0,0],[1,1]];
    y = y + [[1,0],[1,1]]*y + [[0,0],[1,1]]*y*y + [[0,1],[0,0]];""",
)


@pytest.mark.filterwarnings("ignore:cannot verify the start vector:RuntimeWarning")
def test_idempotent_sequence_matches_ladder_oracle():
    # the completion-step chain against the ladder evaluation it stands for;
    # budgets below the Kleene round count leave the start check unverified
    rng = random.Random(37)
    systems = [
        random_system(sr, rng, rng.randint(1, 3))
        for sr in instances_for_order_tests()
        for _ in range(12)
    ]
    systems += [parse(text) for text in LATE_CUT_SYSTEMS]
    partial = exhausted = 0
    for sys in systems:
        lfp = kleene_solve(sys)
        assert lfp.stabilized
        for b in (dict(sys.a), lfp.value):
            for budget in (None, 1, 2, 3, 4):
                seq = munchausen_sequence(sys, 3, b, budget)
                for k in range(4):
                    oracle = evaluate_grammar(munchausen_grammar(sys, k), b, budget)
                    assert (k < len(seq.iterates)) == oracle.stabilized
                    if oracle.stabilized:
                        assert vector_eq(seq.iterates[k], oracle.value)
                assert seq.stabilized == (len(seq.iterates) == 4)
                exhausted += not seq.stabilized
                partial += 0 < len(seq.iterates) < 4
    # the tiny budgets cut some sequences short, some after a prefix
    assert exhausted and partial


def test_sequence_after_fixed_point_costs_no_steps():
    # fixed after one completion step; the later iterates only repeat it
    sys = parse("semiring boolean; vars x; x = x*x + 1;")
    start = time.perf_counter()
    seq = munchausen_sequence(sys, 10**6)
    assert time.perf_counter() - start < 10
    assert seq.stabilized and len(seq.iterates) == 10**6 + 1
    assert seq.iterates[0] == seq.iterates[-1] == {"x": BOOLEAN.one()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_counting_sequence_matches_ladder_oracle():
    # the word-sum chain against the per-level ladder evaluation; random
    # start vectors may leave the bracket the start check warns about
    rng = random.Random(43)
    budgets = (0, 1, 2, 5, 13, 30, 200)
    cases = []
    for _ in range(15):
        sys = random_system(COUNTING, rng, rng.randint(1, 3))
        cases += [(sys, None, budget) for budget in budgets]
    for _ in range(15):
        sys = random_triangular_system(COUNTING, rng, rng.randint(1, 4))
        for b in (None, random_point(COUNTING, rng, sys.variables)):
            cases += [(sys, b, budget) for budget in budgets + (None,)]
    partial = 0
    for sys, b, budget in cases:
        seq = munchausen_sequence(sys, 3, b, budget)
        for k in range(4):
            oracle = evaluate_grammar(munchausen_grammar(sys, k), b or sys.a, budget)
            assert (k < len(seq.iterates)) == oracle.stabilized
            if oracle.stabilized:
                assert vector_eq(seq.iterates[k], oracle.value)
        assert seq.stabilized == (len(seq.iterates) == 4)
        partial += 0 < len(seq.iterates) < 4
    # some budgets cut a sequence after a nonempty prefix
    assert partial


def test_counting_chain_stops_at_the_expansion_budget():
    # y doubles at every step and never settles; the budget caps the samples
    start = time.perf_counter()
    seq = munchausen_sequence(counting_chain(), 40)
    assert time.perf_counter() - start < 2
    assert not seq.stabilized and len(seq.iterates) == 14
    assert seq.iterates[2]["x"].payload == 104


def test_cyclic_counting_system_exhausts_without_expanding():
    # y -> y is a spine cycle, so the completion words never run out
    sys = parse("semiring counting;\nvars x y z;\nx = 1;\ny = 2*x*y;\nz = 3*x + x;\n")
    start = time.perf_counter()
    seq = munchausen_sequence(sys, 2, budget=4000)
    assert time.perf_counter() - start < 2
    assert seq.iterates == [] and not seq.stabilized


def test_newton_stops_at_fixed_point_and_pads(monkeypatch):
    rng = random.Random(41)
    calls = []

    completion_step = solver._completion_step

    def counted(*args, **kwargs):
        calls.append(1)
        return completion_step(*args, **kwargs)

    monkeypatch.setattr(solver, "_completion_step", counted)
    early = 0
    for sr in instances_for_order_tests():
        for _ in range(10):
            sys = random_system(sr, rng, rng.randint(1, 3))
            by_hand = [apply_rhs(sys, {x: sr.zero() for x in sys.variables})]
            for _ in range(8):
                out = newton_step(sys, by_hand[-1])
                assert out.stabilized
                by_hand.append(out.value)
            needed = next(
                (j + 1 for j in range(8) if by_hand[j + 1] == by_hand[j]), 8
            )
            calls.clear()
            seq = newton_solve(sys, 8)
            assert seq.stabilized and len(seq.iterates) == 9
            for got, want in zip(seq.iterates, by_hand):
                assert vector_eq(got, want)
            assert len(calls) == needed
            early += needed < 8
    assert early


def test_start_vector_at_solution_is_fixed():
    rng = random.Random(23)
    for sr in instances_for_order_tests():
        for _ in range(10):
            sys = random_system(sr, rng, rng.randint(1, 3))
            lfp = kleene_solve(sys).value
            seq = munchausen_sequence(sys, 2, b=lfp)
            for it in seq.iterates:
                assert vector_eq(it, lfp)


def test_start_vector_outside_bracket_warns():
    sys = equation_system(
        BOOLEAN,
        ("x",),
        {"x": polynomial(BOOLEAN, [monomial(BOOLEAN, ["x", "x"])])},
    )
    with pytest.warns(RuntimeWarning, match="outside"):
        munchausen_sequence(sys, 1, b={"x": BOOLEAN.value(True)})


def test_start_vector_check_skipped_when_iteration_diverges():
    ct = COUNTING.value
    sys = equation_system(
        COUNTING,
        ("x",),
        {"x": polynomial(COUNTING, [monomial(COUNTING, ["x"]), monomial(COUNTING, [ct(1)])])},
    )
    with pytest.warns(RuntimeWarning, match="did not stabilize"):
        munchausen_sequence(sys, 0, b={"x": ct(5)}, budget=50)


def test_start_vector_check_iterates_within_the_budget(monkeypatch):
    # the bracket's upper end is plain iteration's, under the caller's budget
    munchausen = importlib.import_module("semifix.munchausen")
    rounds = []

    def recorded(sys, max_iters=None):
        out = kleene_solve(sys, max_iters)
        rounds.append(out.steps_used)
        return out

    monkeypatch.setattr(munchausen, "kleene_solve", recorded)
    ct = COUNTING.value
    growing = parse("semiring counting;\nvars x y;\nx = x + y;\ny = 1;\n")
    with pytest.warns(RuntimeWarning, match="cannot verify"):
        munchausen_sequence(growing, 1, b={"x": ct(0), "y": ct(1)}, budget=200)
    assert rounds == [200]
    chain = counting_chain()  # least solution x = 4, y = 2, z = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        munchausen_sequence(chain, 1, b={"x": ct(0), "y": ct(2), "z": ct(2)}, budget=200)
    with pytest.warns(RuntimeWarning, match="start vector is outside"):
        munchausen_sequence(chain, 1, b={"x": ct(5), "y": ct(2), "z": ct(2)}, budget=200)
    with pytest.warns(RuntimeWarning, match="cannot verify"):
        munchausen_sequence(chain, 1, b={"x": ct(0), "y": ct(2), "z": ct(2)}, budget=2)
    assert rounds == [200, 3, 3, 2]


def test_expansion_budget_flags_growing_layer():
    ct = COUNTING.value
    sys = equation_system(
        COUNTING,
        ("x", "y"),
        {
            "x": polynomial(COUNTING, [monomial(COUNTING, ["x", "y"]), monomial(COUNTING, [ct(1)])]),
            "y": poly_of_value(COUNTING, ct(2)),
        },
    )
    seq = munchausen_sequence(sys, 1, budget=200)
    assert not seq.stabilized
    assert seq.iterates == []


def test_distinct_words_counted_once():
    # both occurrence rules of x reach the word 1 y 1 y 1, summed once
    ct = COUNTING.value
    sys = counting_chain()
    lg = linear_completion_grammar(sys)
    v = {"x": ct(0), "y": ct(3), "z": ct(5)}
    out = evaluate_grammar(lg, v)
    assert out.value["x"].payload == 0 + 3 * 3 + 5 * 3 + 3 * 5


def test_differential_star_matches_grammar():
    rng = random.Random(29)
    for sr in (BOOLEAN, relation_semiring(2)):
        for _ in range(25):
            sys = random_system(sr, rng, rng.randint(1, 3))
            lg = linear_completion_grammar(sys)
            for v in (dict(sys.a), kleene_solve(sys).value):
                c1 = completion_via_differential_star(sys, v)
                c2 = evaluate_grammar(lg, v).value
                assert vector_eq(c1, c2)


def test_differential_star_raises_on_budget():
    ct = COUNTING.value
    sys = equation_system(
        COUNTING,
        ("x",),
        {"x": polynomial(COUNTING, [monomial(COUNTING, ["x"]), monomial(COUNTING, [ct(1)])])},
    )
    with pytest.raises(BudgetExhaustedError):
        completion_via_differential_star(sys, dict(sys.a), budget=40)


def test_left_linear_rules_golden():
    mp = MIN_PLUS.value
    sys = equation_system(
        MIN_PLUS,
        ("x", "y"),
        {
            "x": polynomial(MIN_PLUS, [monomial(MIN_PLUS, [mp(2), "y", "y"])]),
            "y": poly_of_value(MIN_PLUS, mp(1)),
        },
    )
    lg = left_linear_completion_grammar(sys)
    assert rendered_rules(lg) == {
        "x^1": ["y^1 2 y 0", "y^1 2 y 0", "x"],
        "y^1": ["y"],
    }
    for words in lg.rules.values():
        for word in words[:-1]:
            assert isinstance(word[0], NonTerm)


def test_left_linear_agrees_on_commutative_instances():
    rng = random.Random(31)
    for sr in (BOOLEAN, MIN_PLUS, relation_semiring(1)):
        for _ in range(20):
            sys = random_system(sr, rng, rng.randint(1, 3))
            ll = left_linear_completion_grammar(sys)
            lg = linear_completion_grammar(sys)
            v = random_point(sr, rng, sys.variables)
            assert vector_eq(
                evaluate_grammar(ll, v).value, evaluate_grammar(lg, v).value
            )


def test_left_linear_rejects_noncommutative():
    sr = relation_semiring(2)
    sys = equation_system(sr, ("x",), {"x": poly_of_var(sr, "x")})
    with pytest.raises(InvariantError, match="commutative"):
        left_linear_completion_grammar(sys)


def test_indexed_grammar_counts():
    ig = indexed_grammar_of(counting_chain())
    assert [len(ig.recursion[v]) for v in ("x", "y", "z")] == [2, 1, 0]


def test_expand_indexed_matches_doubling():
    rng = random.Random(37)
    systems = [counting_chain()]
    for sr in instances_for_order_tests():
        systems.append(random_system(sr, rng, rng.randint(1, 3)))
    for sys in systems:
        ig = indexed_grammar_of(sys)
        for n in range(4):
            direct = munchausen_grammar(sys, n)
            unfolded = expand_indexed(ig, n)
            assert canonical_form(direct) == canonical_form(unfolded)
            assert direct.rules == unfolded.rules


def test_canonical_form_ignores_rule_order():
    sr = BOOLEAN
    w1 = (VarTerminal("x"),)
    w2 = (NonTerm("x", 1),)
    a = LinearCfg(sr, ("x",), 0, {NonTerm("x", 1): (w1, w2)})
    b = LinearCfg(sr, ("x",), 0, {NonTerm("x", 1): (w2, w1)})
    assert canonical_form(a) == canonical_form(b)


def test_evaluate_rejects_fragments_and_partial_vectors():
    sys = counting_chain()
    lg = linear_completion_grammar(sys)
    with pytest.raises(InvariantError, match="ladder"):
        evaluate_grammar(index_shift(lg, 1), dict(sys.a))
    with pytest.raises(InvariantError, match="cover"):
        evaluate_grammar(lg, {"x": COUNTING.value(0)})
    # {x, z} is not a proper subset of {x, y}, yet it has no value for y
    xy = parse("semiring boolean;\nvars x y;\nx = y;\ny = 1;\n")
    one = BOOLEAN.one()
    with pytest.raises(InvariantError, match="cover"):
        evaluate_grammar(linear_completion_grammar(xy), {"x": one, "z": one})


def test_idempotent_ladder_layers_must_be_linear():
    # x^1 -> x^1 x^1 | x is quadratic in its own layer, which no ladder is
    x1 = NonTerm("x", 1)
    lg = LinearCfg(BOOLEAN, ("x",), 0, {x1: ((x1, x1), (VarTerminal("x"),))})
    with pytest.raises(InvariantError, match="two nonterminals of its layer"):
        evaluate_grammar(lg, {"x": BOOLEAN.one()})


def test_a_foreign_start_value_for_a_ladder_is_an_instance_mismatch():
    boolean = parse("semiring boolean;\nvars x y;\nx = y;\ny = 1;\n")
    for sys, foreign in ((boolean, COUNTING.one()), (counting_chain(), BOOLEAN.one())):
        b = {**sys.a, sys.variables[-1]: foreign}
        with pytest.raises(InstanceMismatchError):
            evaluate_grammar(munchausen_grammar(sys, 1), b)


def test_counting_ladder_keeps_plugs_of_equal_value_apart():
    # y and z both read 1, yet 1 y 1 and 1 z 1 are two words of x's layer
    sys = parse("semiring counting;\nvars x y z;\nx = y + z;\ny = 1;\nz = 1;\n")
    seq = munchausen_sequence(sys, 1)
    for k in range(2):
        got = evaluate_grammar(munchausen_grammar(sys, k), dict(sys.a)).value
        assert got == seq.iterates[k] and got["x"] == COUNTING.value(2 * k + 2)


def test_oracles_make_no_value_level_arithmetic(monkeypatch):
    boolean = parse("semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x*x;\n")
    ladders = [(munchausen_grammar(sys, 2), dict(sys.a)) for sys in (boolean, counting_chain())]
    trees = [
        (grammar_with_constants(sys), grammar_of(sys), dict(sys.a))
        for sys in (boolean, counting_chain())
    ]

    def forbidden(*args):
        raise AssertionError("Value-level arithmetic in an oracle")

    # the package exports a function named polynomial, which hides the module
    for module in ("semiring", "polynomial", "grammar"):
        module = importlib.import_module(f"semifix.{module}")
        for name in ("add", "mul"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for lg, b in ladders:
        assert evaluate_grammar(lg, b).stabilized
    for complete, open_trees, at in trees:
        assert tree_sum(complete, "x", 3).stabilized
        assert tree_sum(open_trees, "x", 3, complete_only=False, at=at).stabilized


def test_function_table_matches_pointwise_evaluation():
    rng = random.Random(41)
    for sr in (BOOLEAN, relation_semiring(2)):
        for _ in range(8):
            sys = random_system(sr, rng, 2)
            table = completion_function_table(sys)
            fs = table[sys.variables[0]].semiring
            lg = linear_completion_grammar(sys)
            for pt in product(sr.elements(), repeat=len(sys.variables)):
                v = dict(zip(sys.variables, pt))
                want = evaluate_grammar(lg, v).value
                for x in sys.variables:
                    assert table_at(table[x], v) == want[x]


def test_json_exports():
    lg = linear_completion_grammar(counting_chain())
    data = lincfg_to_json(lg)
    assert data["level"] == 0
    assert data["start"] == {"x": "x^1", "y": "y^1", "z": "z^1"}
    first = data["rules"][0]
    assert first["lhs"] == "x^1"
    assert first["rhs"][0] == {"kind": "value", "value": "1"}
    assert first["rhs"][1] == {"kind": "nonterminal", "var": "y", "index": 1}
    assert first["rhs"][2] == {"kind": "value", "value": "1"}
    assert first["rhs"][3] == {"kind": "variable", "name": "y"}

    ig = indexed_grammar_of(counting_chain())
    idata = indexed_to_json(ig)
    assert idata["pop"] == ["x", "y", "z"]
    spine_kinds = [s["kind"] for s in idata["recursion"][0]["rhs"]]
    assert spine_kinds == ["value", "spine", "value", "variable", "value"]


def test_munchausen_sequence_rejects_a_negative_iterate_count():
    cyclic = parse("semiring counting;\nvars x y;\nx = y + 1;\ny = x;\n")
    boolean = parse("semiring boolean;\nvars x;\nx = x*x + 1;\n")
    for sys in (boolean, counting_chain(), cyclic):
        with pytest.raises(InvariantError, match="nonnegative"):
            munchausen_sequence(sys, -2)


def test_munchausen_sequence_start_vector_must_cover_exactly_the_variables():
    boolean = parse("semiring boolean;\nvars x y;\nx = y;\ny = 1;\n")
    for sys in (boolean, counting_chain()):
        one = sys.semiring.one()
        missing = {x: one for x in sys.variables if x != "y"}
        with pytest.raises(InvariantError, match="no value for 'y'"):
            munchausen_sequence(sys, 1, b=missing)
        with pytest.raises(InvariantError, match="undeclared 'w'"):
            munchausen_sequence(sys, 1, b={**dict.fromkeys(sys.variables, one), "w": one})


def test_counting_chain_compiles_its_word_sums_once(monkeypatch):
    # the package exports a function named polynomial, which hides the module
    poly_module = importlib.import_module("semifix.polynomial")
    compiles = []
    compile_rows = poly_module._compile

    def counted_compile(*args):
        compiles.append(1)
        return compile_rows(*args)

    monkeypatch.setattr(poly_module, "_compile", counted_compile)
    seq = munchausen_sequence(counting_chain(), 3)
    assert seq.stabilized and seq.iterates[2]["x"].payload == 104
    # the system built from polynomials compiles once; the word sums are written as rows
    assert len(compiles) == 1
    compiles.clear()
    assert munchausen_sequence(parse(render(counting_chain())), 3) == seq
    assert compiles == []
    # a spine cycle exhausts the budget before any word sum is built
    cyclic = parse("semiring counting;\nvars x y z;\nx = 1;\ny = 2*x*y;\nz = 3*x + x;\n")
    compiles.clear()
    assert munchausen_sequence(cyclic, 2, budget=4000).iterates == []
    assert compiles == []


DUPLICATE_WORDS = "semiring counting;\nvars x y z;\nx = y*y + y*y;\ny = z + z*1;\nz = 2;\n"


def test_counting_chain_expands_coded_payload_words(monkeypatch):
    munchausen = importlib.import_module("semifix.munchausen")
    built = []

    def no_nonterm(*args):
        built.append(args)
        raise AssertionError("the counting chain built a grammar symbol")

    monkeypatch.setattr(munchausen, "NonTerm", no_nonterm)
    sys = parse(DUPLICATE_WORDS)
    seq = munchausen_sequence(sys, 2)
    assert "f" not in vars(sys) and built == []
    # each word that two derivations spell counts once: x = y*y + y*y and y = z + z*1
    assert [seq.iterates[k]["x"].payload for k in range(3)] == [0, 12, 104]
    assert seq.iterates[2]["y"].payload == 8
    assert kleene_solve(sys).value["x"].payload == 32


def test_counting_chain_layer_cost_sets_the_affordable_iterates(monkeypatch):
    munchausen = importlib.import_module("semifix.munchausen")
    spent = []
    expand = munchausen._layer_expansion

    def counted(rules, keys, budget, used):
        out = expand(rules, keys, budget, used)
        spent.append(used[0])
        return out

    monkeypatch.setattr(munchausen, "_layer_expansion", counted)
    sys = parse(DUPLICATE_WORDS)
    for budget, iterates in ((7, 0), (8, 1), (15, 1), (16, 2)):
        spent.clear()
        seq = munchausen_sequence(sys, 3, budget=budget)
        assert not seq.stabilized and len(seq.iterates) == iterates
        assert spent == [min(budget, 8)]
    # the ladder's layer of the same grammar takes the same 8 expansions
    assert evaluate_grammar(munchausen_grammar(sys, 0), dict(sys.a)).steps_used == 8

"""Tensor companion operations and the companion solving path."""

import importlib
import random

import pytest

from gen import differential, linear_system, random_eq1, random_system
from semifix.munchausen import (
    evaluate_grammar,
    linear_completion_grammar,
    munchausen_sequence,
)
from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    equation_system,
    monomial,
    poly_of_var,
    polynomial,
)
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    mul,
    relation_semiring,
    vector_eq,
)
from semifix.solver import BudgetExhaustedError, kleene_solve
from semifix.tensor import (
    AdmissibleOps,
    check_admissible,
    regularize,
    relation_admissible,
    solve_left_linear,
    tensor_pipeline,
)

REL2 = relation_semiring(2)


def rel(rows):
    return REL2.value(tuple(tuple(bool(v) for v in row) for row in rows))


def test_admissible_laws_hold():
    check_admissible(relation_admissible(1))
    check_admissible(relation_admissible(2))


def test_law_check_rejects_broken_transpose():
    good = relation_admissible(2)
    broken = AdmissibleOps(
        good.base, good.tensor, lambda a: a, good.tensor_prod, good.readout
    )
    with pytest.raises(InvariantError, match="law failed"):
        check_admissible(broken)


def test_kronecker_and_readout_golden():
    ops = relation_admissible(2)
    a = rel([[0, 1], [0, 0]])
    b = rel([[0, 0], [1, 0]])
    t = ops.tensor_prod(ops.transpose(a), b)
    want = [[False] * 4 for _ in range(4)]
    want[3][0] = True
    assert t == ops.tensor.value(want)
    assert ops.readout(t) == mul(a, b)
    assert ops.readout(t) == rel([[1, 0], [0, 0]])


def test_regularized_solution_matches_direct_iteration():
    rng = random.Random(11)
    ops = relation_admissible(2)
    for _ in range(40):
        e1 = random_eq1(REL2, rng, rng.randint(1, 3))
        y = solve_left_linear(regularize(e1, ops))
        got = {x: ops.readout(y[x]) for x in e1.variables}
        want = kleene_solve(e1).value
        assert vector_eq(got, want)


def test_regularize_gives_a_linear_system_over_the_companion():
    rng = random.Random(12)
    ops = relation_admissible(2)
    one_t = ops.tensor.one()
    for _ in range(40):
        e1 = random_eq1(REL2, rng, rng.randint(1, 3))
        lls = regularize(e1, ops)
        assert isinstance(lls, EquationSystem)
        assert lls.semiring is ops.tensor
        assert lls.variables == e1.variables
        for x in lls.variables:
            assert lls.a[x] == ops.tensor_prod(ops.transpose(REL2.one()), e1.a[x])
            nonzero = [
                (m.variables[0], *m.coefficients)
                for m in e1.f[x].monomials
                if ops.tensor_prod(ops.transpose(m.coefficients[0]), m.coefficients[1])
                != ops.tensor.zero()
            ]
            assert len(lls.f[x].monomials) == len(nonzero)
            for m, (j, a, b) in zip(lls.f[x].monomials, nonzero):
                assert m.variables == (j,)
                assert m.coefficients == (one_t, ops.tensor_prod(ops.transpose(a), b))


def test_companion_solve_that_does_not_stabilize_is_an_exhausted_budget(monkeypatch):
    import semifix.solver

    ops = relation_admissible(2)
    a = rel([[0, 1], [1, 0]])
    f = {"x": polynomial(REL2, [monomial(REL2, [a, "x", a])])}
    e1 = EquationSystem(REL2, ("x",), f, {"x": REL2.one()})
    monkeypatch.setattr(semifix.solver, "DEFAULT_KLEENE_BUDGET", 1)
    with pytest.raises(BudgetExhaustedError, match="companion solve"):
        solve_left_linear(regularize(e1, ops))


def test_regularize_rejects_higher_degrees():
    ops = relation_admissible(2)
    a = rel([[0, 1], [1, 0]])
    f = {"x": polynomial(REL2, [monomial(REL2, [a, "x", "x"])])}
    with pytest.raises(InvariantError, match="degree 2"):
        regularize(EquationSystem(REL2, ("x",), f, {"x": REL2.one()}), ops)


def test_completion_terms_golden():
    ct = COUNTING.value
    sys = equation_system(
        COUNTING,
        ("x", "y", "z"),
        {
            "x": polynomial(COUNTING, [monomial(COUNTING, ["y", "y"])]),
            "y": polynomial(COUNTING, [monomial(COUNTING, ["z"])]),
            "z": polynomial(COUNTING, [monomial(COUNTING, [ct(2)])]),
        },
    )
    v = {"x": ct(0), "y": ct(3), "z": ct(5)}
    lin = differential(sys, v)
    assert [(m.variables, m.coefficients) for m in lin["x"].monomials] == [
        (("y",), (ct(1), ct(3))),
        (("y",), (ct(3), ct(1))),
    ]
    assert [(m.variables, m.coefficients) for m in lin["y"].monomials] == [
        (("z",), (ct(1), ct(1)))
    ]
    assert lin["z"].monomials == ()


def test_completion_drops_frozen_zero_terms():
    sr = BOOLEAN
    sys = equation_system(
        sr, ("x", "y"), {"x": poly_of_var(sr, "y"), "y": poly_of_var(sr, "x")}
    )
    lin = differential(sys, sys.a)
    assert [(m.variables, m.coefficients) for m in lin["x"].monomials] == [
        (("y",), (sr.one(), sr.one()))
    ]


def test_pipeline_single_cycle_is_completion():
    rng = random.Random(13)
    for _ in range(20):
        sys = random_system(REL2, rng, rng.randint(1, 3))
        got = tensor_pipeline(sys, 0)
        want = evaluate_grammar(linear_completion_grammar(sys), dict(sys.a)).value
        assert vector_eq(got, want)


def test_pipeline_matches_accelerated_sequence():
    rng = random.Random(15)
    # relation[3] in 4-5 variables has the relation[9] companion the benchmark runs
    for sr, sizes, count in ((REL2, (1, 3), 15), (relation_semiring(3), (4, 5), 20)):
        for _ in range(count):
            sys = random_system(sr, rng, rng.randint(*sizes))
            seq = munchausen_sequence(sys, 2)
            for n in range(3):
                assert vector_eq(tensor_pipeline(sys, n), seq.iterates[n])


def _value_level_cycle(sys, ops, v):
    """One completion step through `regularize`, `solve_left_linear` and the readout."""
    lin = linear_system(sys, v, v)
    y = solve_left_linear(regularize(lin, ops))
    return {x: ops.readout(y[x]) for x in sys.variables}


def test_pipeline_matches_the_value_level_companion_chain():
    rng = random.Random(16)
    for sr, sizes, count in ((REL2, (1, 3), 15), (relation_semiring(3), (4, 5), 10)):
        ops = relation_admissible(sr.q)
        for _ in range(count):
            sys = random_system(sr, rng, rng.randint(*sizes))
            chain = [dict(sys.a)]
            for _ in range(4):
                chain.append(_value_level_cycle(sys, ops, chain[-1]))
            for n in range(3):
                assert tensor_pipeline(sys, n) == chain[1 << n]


def test_pipeline_compiles_once_and_builds_no_equation_system(monkeypatch):
    # the package exports a function named polynomial, which hides the module
    poly_module = importlib.import_module("semifix.polynomial")
    # its chain changes in three cycles before the fixed point
    sys = random_system(REL2, random.Random(80), 3)
    compiles, systems = [], []
    compile_rows, post_init = poly_module._compile, EquationSystem.__post_init__

    def counted_compile(*args):
        compiles.append(1)
        return compile_rows(*args)

    def counted_post_init(self):
        systems.append(1)
        post_init(self)

    monkeypatch.setattr(poly_module, "_compile", counted_compile)
    monkeypatch.setattr(EquationSystem, "__post_init__", counted_post_init)
    tensor_pipeline(sys, 2)
    assert len(compiles) == 1
    assert systems == []


def test_pipeline_needs_known_companion():
    sys = equation_system(BOOLEAN, ("x",), {"x": poly_of_var(BOOLEAN, "x")})
    with pytest.raises(InvariantError, match="admissible"):
        tensor_pipeline(sys, 1)


def test_pipeline_rejects_a_negative_iterate_count():
    sys = random_system(REL2, random.Random(3), 2)
    with pytest.raises(InvariantError, match="nonnegative"):
        tensor_pipeline(sys, -1)

"""Tensor companion operations and the companion solving path."""

import random

import pytest

from gen import random_eq1, random_point, random_system
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
    MIN_PLUS,
    mul,
    relation_semiring,
    vector_eq,
)
from semifix.solver import BudgetExhaustedError, kleene_solve, newton_step, solve_linear
from semifix.tensor import (
    AdmissibleOps,
    Eq1System,
    as_equation_system,
    check_admissible,
    eq1_of_completion,
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
        want = kleene_solve(as_equation_system(e1)).value
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
            assert lls.a[x] == ops.tensor_prod(ops.transpose(REL2.one()), e1.constants[x])
            nonzero = [
                (j, a, b)
                for j, a, b in e1.terms[x]
                if ops.tensor_prod(ops.transpose(a), b) != ops.tensor.zero()
            ]
            assert len(lls.f[x].monomials) == len(nonzero)
            for m, (j, a, b) in zip(lls.f[x].monomials, nonzero):
                assert m.variables == (j,)
                assert m.coefficients == (one_t, ops.tensor_prod(ops.transpose(a), b))


def test_companion_solve_that_does_not_stabilize_is_an_exhausted_budget(monkeypatch):
    import semifix.solver

    ops = relation_admissible(2)
    a = rel([[0, 1], [1, 0]])
    e1 = Eq1System(REL2, ("x",), {"x": REL2.one()}, {"x": (("x", a, a),)})
    monkeypatch.setattr(semifix.solver, "DEFAULT_KLEENE_BUDGET", 1)
    with pytest.raises(BudgetExhaustedError, match="companion solve"):
        solve_left_linear(regularize(e1, ops))


def test_eq1_validation():
    with pytest.raises(InvariantError, match="cover"):
        Eq1System(REL2, ("x",), {}, {"x": ()})
    with pytest.raises(InvariantError, match="undeclared"):
        Eq1System(
            REL2,
            ("x",),
            {"x": REL2.one()},
            {"x": (("y", REL2.one(), REL2.one()),)},
        )


def test_as_equation_system_shape():
    a = rel([[0, 1], [0, 0]])
    b = rel([[0, 0], [1, 0]])
    e1 = Eq1System(REL2, ("x",), {"x": REL2.one()}, {"x": (("x", a, b),)})
    sys = as_equation_system(e1)
    (m,) = sys.f["x"].monomials
    assert m.variables == ("x",)
    assert m.coefficients == (a, b)
    assert sys.a["x"] == REL2.one()


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
    e1 = eq1_of_completion(sys, v)
    assert e1.constants == v
    assert e1.terms["x"] == (("y", ct(1), ct(3)), ("y", ct(3), ct(1)))
    assert e1.terms["y"] == (("z", ct(1), ct(1)),)
    assert e1.terms["z"] == ()


def test_completion_drops_frozen_zero_terms():
    sr = BOOLEAN
    sys = equation_system(
        sr, ("x", "y"), {"x": poly_of_var(sr, "y"), "y": poly_of_var(sr, "x")}
    )
    e1 = eq1_of_completion(sys, dict(sys.a))
    assert e1.terms["x"] == (("y", sr.one(), sr.one()),)


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


def test_pipeline_needs_known_companion():
    sys = equation_system(BOOLEAN, ("x",), {"x": poly_of_var(BOOLEAN, "x")})
    with pytest.raises(InvariantError, match="admissible"):
        tensor_pipeline(sys, 1)


def test_completion_system_solves_like_newton_step():
    rng = random.Random(17)
    for sr in (BOOLEAN, MIN_PLUS, REL2, COUNTING):
        for _ in range(40):
            sys = random_system(sr, rng, rng.randint(1, 3))
            for v in (dict(sys.a), random_point(sr, rng, sys.variables)):
                got = solve_linear(as_equation_system(eq1_of_completion(sys, v)))
                want = newton_step(sys, v)
                assert got.value == want.value
                assert (got.status, got.steps_used) == (want.status, want.steps_used)

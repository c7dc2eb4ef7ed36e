"""Kleene iteration, linear least solutions, and Newton steps."""

import itertools
import random

import pytest

from gen import instances_for_order_tests, random_system
from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    differential_full,
    equation_system,
    eval_poly,
    eval_rhs,
    mono_of_var,
    monomial,
    poly_of_value,
    poly_of_var,
    polynomial,
)
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    INF,
    MIN_PLUS,
    add,
    relation_semiring,
    vector_leq,
)
from semifix.solver import (
    BUDGET_EXHAUSTED,
    STABILIZED,
    SolveOutcome,
    default_linear_budget,
    kleene_solve,
    newton_solve,
    newton_step,
    solve_linear,
)

REL2 = relation_semiring(2)


def ct(n):
    return COUNTING.value(n)


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


def boolean_system_xyz():
    return equation_system(
        BOOLEAN,
        ("x", "y", "z"),
        {
            "x": polynomial(BOOLEAN, [monomial(BOOLEAN, ["y", "y"])]),
            "y": poly_of_var(BOOLEAN, "z"),
            "z": poly_of_value(BOOLEAN, BOOLEAN.one()),
        },
    )


def test_kleene_on_square_chain_system():
    out = kleene_solve(counting_system_xyz())
    assert out.status == STABILIZED
    assert out.value == {"x": ct(4), "y": ct(2), "z": ct(2)}
    assert out.steps_used == 3


def test_kleene_result_is_a_fixed_point():
    rng = random.Random(41)
    for sr in instances_for_order_tests():
        for _ in range(30):
            sys = random_system(sr, rng, 3)
            out = kleene_solve(sys)
            assert out.status == STABILIZED
            assert eval_rhs(sys, out.value) == out.value


def test_kleene_result_is_least_among_boolean_fixed_points():
    rng = random.Random(43)
    for _ in range(30):
        sys = random_system(BOOLEAN, rng, 3)
        out = kleene_solve(sys)
        for bits in itertools.product(BOOLEAN.elements(), repeat=3):
            candidate = dict(zip(sys.variables, bits))
            if eval_rhs(sys, candidate) == candidate:
                assert vector_leq(out.value, candidate)


def test_kleene_min_plus_always_stabilizes():
    rng = random.Random(47)
    for _ in range(50):
        sys = random_system(MIN_PLUS, rng, 4)
        out = kleene_solve(sys)
        assert out.status == STABILIZED


def test_kleene_budget_exhaustion_reports_partial_vector():
    sys = equation_system(
        COUNTING,
        ("x",),
        {"x": polynomial(COUNTING, [mono_of_var(COUNTING, "x"), monomial(COUNTING, [ct(1)])])},
    )
    out = kleene_solve(sys, max_iters=25)
    assert out.status == BUDGET_EXHAUSTED
    assert out.steps_used == 25
    assert out.value == {"x": ct(25)}


def test_kleene_counting_saturates_to_infinity():
    sys = equation_system(
        COUNTING,
        ("x",),
        {
            "x": polynomial(
                COUNTING,
                [monomial(COUNTING, ["x", "x"]), monomial(COUNTING, [ct(2)])],
            )
        },
    )
    out = kleene_solve(sys)
    assert out.status == STABILIZED
    assert out.value == {"x": ct(INF)}


def test_linear_system_rejects_higher_degrees():
    with pytest.raises(InvariantError):
        solve_linear(
            EquationSystem(
                BOOLEAN,
                ("x",),
                {"x": polynomial(BOOLEAN, [monomial(BOOLEAN, ["x", "x"])])},
                {"x": BOOLEAN.zero()},
            )
        )
    with pytest.raises(InvariantError):
        EquationSystem(BOOLEAN, ("x",), {"x": poly_of_var(BOOLEAN, "y")}, {"x": BOOLEAN.zero()})
    with pytest.raises(InvariantError):
        EquationSystem(BOOLEAN, ("x",), {}, {"x": BOOLEAN.zero()})


def test_solve_linear_chain():
    lin = EquationSystem(
        COUNTING,
        ("x", "y"),
        {"x": poly_of_var(COUNTING, "y"), "y": polynomial(COUNTING, [])},
        {"x": ct(1), "y": ct(2)},
    )
    out = solve_linear(lin)
    assert out.status == STABILIZED
    assert out.value == {"x": ct(3), "y": ct(2)}


def test_solve_linear_solution_satisfies_equation():
    rng = random.Random(53)
    for sr in instances_for_order_tests():
        for _ in range(30):
            sys = random_system(sr, rng, 3)
            point = {x: sr.zero() for x in sys.variables}
            lin = EquationSystem(
                sr, sys.variables, differential_full(sys.f, point), dict(sys.a)
            )
            out = solve_linear(lin)
            assert out.status == STABILIZED
            for x in lin.variables:
                assert out.value[x] == add(lin.a[x], eval_poly(lin.f[x], out.value))


def test_solve_linear_is_least_for_boolean():
    rng = random.Random(59)
    for _ in range(20):
        sys = random_system(BOOLEAN, rng, 2)
        point = {x: BOOLEAN.zero() for x in sys.variables}
        lin = EquationSystem(
            BOOLEAN, sys.variables, differential_full(sys.f, point), dict(sys.a)
        )
        out = solve_linear(lin)
        for bits in itertools.product(BOOLEAN.elements(), repeat=2):
            candidate = dict(zip(lin.variables, bits))
            fixed = all(
                candidate[x] == add(lin.a[x], eval_poly(lin.f[x], candidate))
                for x in lin.variables
            )
            if fixed:
                assert vector_leq(out.value, candidate)


def test_solve_linear_geometric_growth_saturates():
    lin = EquationSystem(
        COUNTING,
        ("x",),
        {"x": polynomial(COUNTING, [monomial(COUNTING, [ct(2), "x"])])},
        {"x": ct(1)},
    )
    out = solve_linear(lin)
    assert out.status == STABILIZED
    assert out.value == {"x": ct(INF)}


def test_solve_linear_additive_growth_exhausts_budget():
    lin = EquationSystem(
        COUNTING,
        ("x",),
        {"x": polynomial(COUNTING, [mono_of_var(COUNTING, "x")])},
        {"x": ct(1)},
    )
    out = solve_linear(lin)
    assert out.status == BUDGET_EXHAUSTED
    assert out.steps_used == default_linear_budget(lin)


def test_default_linear_budget_scales_with_magnitude():
    small = EquationSystem(
        MIN_PLUS,
        ("x",),
        {"x": polynomial(MIN_PLUS, [])},
        {"x": MIN_PLUS.value(3)},
    )
    big = EquationSystem(
        MIN_PLUS,
        ("x",),
        {"x": polynomial(MIN_PLUS, [])},
        {"x": MIN_PLUS.value(1000)},
    )
    assert default_linear_budget(small) == 10 * 2 * 64
    assert default_linear_budget(big) == 10 * 2 * 1000


def test_newton_first_iterate_is_the_constant_vector():
    rng = random.Random(61)
    for sr in instances_for_order_tests():
        for _ in range(20):
            sys = random_system(sr, rng, 3)
            out = newton_solve(sys, 0)
            assert out.iterates == [dict(sys.a)]


def test_newton_iterates_on_boolean_chain():
    sys = boolean_system_xyz()
    out = newton_solve(sys, 2)
    t, f = BOOLEAN.one(), BOOLEAN.zero()
    assert out.status == STABILIZED
    assert out.iterates[0] == {"x": f, "y": f, "z": t}
    assert out.iterates[1] == {"x": f, "y": t, "z": t}
    assert out.iterates[2] == {"x": t, "y": t, "z": t}


def test_newton_reaches_kleene_fixed_point_when_it_settles():
    rng = random.Random(67)
    for sr in instances_for_order_tests():
        for _ in range(25):
            sys = random_system(sr, rng, 3)
            lfp = kleene_solve(sys).value
            out = newton_solve(sys, 8)
            assert out.status == STABILIZED
            settled = any(
                out.iterates[i] == out.iterates[i + 1] for i in range(len(out.iterates) - 1)
            )
            assert settled
            assert out.iterates[-1] == lfp


def test_newton_iterates_ascend_toward_the_solution():
    rng = random.Random(71)
    for sr in instances_for_order_tests():
        for _ in range(15):
            sys = random_system(sr, rng, 3)
            lfp = kleene_solve(sys).value
            out = newton_solve(sys, 4)
            for earlier, later in zip(out.iterates, out.iterates[1:]):
                assert vector_leq(earlier, later)
            for it in out.iterates:
                assert vector_leq(it, lfp)


def test_newton_warns_on_non_idempotent_instances():
    sys = counting_system_xyz()
    with pytest.warns(RuntimeWarning):
        out = newton_solve(sys, 1)
    assert out.iterates[0] == {"x": ct(0), "y": ct(0), "z": ct(2)}
    assert out.iterates[1] == {"x": ct(0), "y": ct(2), "z": ct(2)}


def test_newton_aborts_on_linear_budget_exhaustion():
    sys = equation_system(
        COUNTING,
        ("x",),
        {"x": polynomial(COUNTING, [mono_of_var(COUNTING, "x"), monomial(COUNTING, [ct(1)])])},
    )
    with pytest.warns(RuntimeWarning):
        out = newton_solve(sys, 2)
    assert out.status == BUDGET_EXHAUSTED
    assert len(out.iterates) == 1


def test_newton_step_outcome_shape():
    sys = boolean_system_xyz()
    out = newton_step(sys, dict(sys.a))
    assert isinstance(out, SolveOutcome)
    assert out.stabilized
    assert set(out.value) == set(sys.variables)


def test_foreign_start_vector_is_an_instance_mismatch():
    from semifix.munchausen import munchausen_sequence
    from semifix.polynomial import Monomial, Polynomial
    from semifix.semiring import InstanceMismatchError

    for sys in (boolean_system_xyz(), counting_system_xyz()):
        other = MIN_PLUS if sys.semiring is not MIN_PLUS else BOOLEAN
        foreign = {x: other.one() for x in sys.variables}
        with pytest.raises(InstanceMismatchError):
            newton_step(sys, foreign)
        with pytest.raises(InstanceMismatchError):
            munchausen_sequence(sys, 2, foreign)
        with pytest.raises(InstanceMismatchError):
            eval_rhs(sys, foreign)
    # a hand-built monomial with a coefficient from another instance
    odd = Monomial(BOOLEAN, (BOOLEAN.one(), MIN_PLUS.one()), ("x",))
    sys = EquationSystem(BOOLEAN, ("x",), {"x": Polynomial(BOOLEAN, (odd,))}, {"x": BOOLEAN.one()})
    with pytest.raises(InstanceMismatchError):
        kleene_solve(sys)

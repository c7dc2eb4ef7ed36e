"""Kleene iteration, linear least solutions, and Newton steps."""

import dataclasses
import importlib
import itertools
import random

import pytest

from gen import instances_for_order_tests, random_system
from semifix import solver
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
    InstanceMismatchError,
    add,
    relation_semiring,
    vector_leq,
)
from semifix.solver import (
    BUDGET_EXHAUSTED,
    DEFAULT_KLEENE_BUDGET,
    STABILIZED,
    SolveOutcome,
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
    # the default budget does not grow with the constant's magnitude
    for constant in (1, 100000):
        lin = EquationSystem(
            COUNTING,
            ("x",),
            {"x": polynomial(COUNTING, [mono_of_var(COUNTING, "x")])},
            {"x": ct(constant)},
        )
        out = solve_linear(lin)
        assert out.status == BUDGET_EXHAUSTED
        assert out.steps_used == DEFAULT_KLEENE_BUDGET


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


def test_samples_after_the_fixed_point_take_no_memory():
    import tracemalloc

    sys = boolean_system_xyz()
    tracemalloc.start()
    try:
        out = newton_solve(sys, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stabilized and len(out.iterates) == 10**6 + 1
    assert peak < 1 << 20
    assert out.iterates[-1] == out.iterates[10**6] == kleene_solve(sys).value


def test_padded_samples_read_as_a_list():
    sys = boolean_system_xyz()
    out = newton_solve(sys, 5)
    listed = [newton_solve(sys, k).iterates[k] for k in range(6)]
    assert len(out.iterates) == 6
    assert out.iterates == listed and listed == out.iterates
    assert list(out.iterates) == listed
    assert out.iterates[-6] == listed[0]
    assert out.iterates[1:4] == listed[1:4] and out.iterates[::-2] == listed[::-2]
    assert out.iterates != listed[:-1]
    with pytest.raises(IndexError):
        out.iterates[6]
    with pytest.raises(IndexError):
        out.iterates[-7]


def test_newton_solve_rejects_a_negative_iterate_count():
    with pytest.raises(InvariantError, match="nonnegative"):
        newton_solve(boolean_system_xyz(), -1)


@pytest.mark.parametrize("call", [eval_rhs, newton_step])
def test_a_vector_must_cover_exactly_the_variables(call):
    sys = boolean_system_xyz()
    one = BOOLEAN.one()
    with pytest.raises(InvariantError, match="no value for 'y'"):
        call(sys, {"x": one, "z": one})
    with pytest.raises(InvariantError, match="undeclared 'w'"):
        call(sys, {"x": one, "y": one, "z": one, "w": one})
    with pytest.raises(InstanceMismatchError):
        call(sys, {"x": one, "y": MIN_PLUS.one(), "z": one})


def test_newton_solve_compiles_the_system_once(monkeypatch):
    # the package exports a function named polynomial, which hides the module
    poly_module = importlib.import_module("semifix.polynomial")
    compiles, steps = [], []
    compile_rows, completion_step = poly_module._compile, solver._completion_step

    def counted_compile(*args):
        compiles.append(1)
        return compile_rows(*args)

    def counted_step(*args):
        steps.append(1)
        return completion_step(*args)

    monkeypatch.setattr(poly_module, "_compile", counted_compile)
    monkeypatch.setattr(solver, "_completion_step", counted_step)
    out = newton_solve(boolean_system_xyz(), 8)
    assert out.stabilized and len(out.iterates) == 9
    assert len(steps) == 3
    assert len(compiles) == 1


def test_equation_system_fields_cannot_be_rebound():
    sys = boolean_system_xyz()
    kleene_solve(sys)
    for field in ("semiring", "variables", "f", "a"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sys, field, getattr(sys, field))

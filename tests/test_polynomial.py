"""Canonical monomials, evaluation, substitution chains, differentials."""

import random

import pytest

from gen import random_point, random_system
from semifix.polynomial import (
    IDENTITY_STEP,
    InvariantError,
    Monomial,
    Polynomial,
    SubstitutionStep,
    differential,
    differential_full,
    enumerate_linear_monomial_substitutions,
    enumerate_linear_polynomial_substitutions,
    equation_system,
    eval_monomial,
    eval_poly,
    eval_rhs,
    mono_of_var,
    monomial,
    poly_add,
    poly_of_value,
    poly_of_var,
    polynomial,
    render_monomial,
    render_polynomial,
    rhs_poly,
    substitute_occurrence,
)
from semifix.semiring import BOOLEAN, COUNTING, MIN_PLUS, add, mul, relation_semiring

REL2 = relation_semiring(2)


def ct(n):
    return COUNTING.value(n)


def counting_system_xyz():
    """x = y*y, y = z, z = 2 over the counting instance."""
    return equation_system(
        COUNTING,
        ("x", "y", "z"),
        {
            "x": polynomial(COUNTING, [monomial(COUNTING, ["y", "y"])]),
            "y": polynomial(COUNTING, [monomial(COUNTING, ["z"])]),
            "z": poly_of_value(COUNTING, ct(2)),
        },
    )


def test_monomial_inserts_unit_coefficients():
    m = monomial(COUNTING, ["y", "y"])
    assert m.coefficients == (ct(1), ct(1), ct(1))
    assert m.variables == ("y", "y")
    assert m.degree == 2


def test_monomial_merges_adjacent_coefficients():
    m = monomial(COUNTING, [ct(2), "y", ct(3), ct(4), "z"])
    assert m.coefficients == (ct(2), ct(12), ct(1))
    assert m.variables == ("y", "z")


def test_monomial_zero_coefficient_collapses():
    m = monomial(COUNTING, [ct(2), "y", ct(0)])
    assert m.is_zero and m.is_constant
    assert m.coefficients == (ct(0),)


def test_monomial_collapse_via_relation_product():
    a = REL2.value([[0, 1], [0, 0]])
    m = monomial(REL2, [a, "x", a, a, "y"])
    assert m.is_zero


def test_monomial_factors_round_trip():
    m = monomial(MIN_PLUS, [MIN_PLUS.value(2), "x", "y", MIN_PLUS.value(5)])
    assert monomial(MIN_PLUS, m.factors()) == m


def test_monomial_rendering_suppresses_units_for_display_only():
    m = monomial(COUNTING, ["y", ct(3), "z"])
    assert render_monomial(m) == "y*3*z"
    assert render_monomial(m, suppress_units=False) == "1*y*3*z*1"
    assert render_monomial(monomial(COUNTING, [ct(1)])) == "1"


def test_polynomial_drops_zero_monomials_keeps_duplicates():
    m = monomial(COUNTING, ["y"])
    p = polynomial(COUNTING, [m, mono_of_var(COUNTING, "y"), monomial(COUNTING, [ct(0), "z"])])
    assert p.monomials == (m, m)
    assert eval_poly(p, {"y": ct(3), "z": ct(9)}) == ct(6)


def test_render_polynomial():
    p = poly_add(poly_of_var(COUNTING, "x"), poly_of_value(COUNTING, ct(2)))
    assert render_polynomial(p) == "x + 2"
    assert render_polynomial(polynomial(COUNTING, [])) == "0"


def test_eval_monomial_respects_order():
    a = REL2.value([[0, 1], [0, 0]])
    b = REL2.value([[0, 0], [1, 0]])
    m = monomial(REL2, [a, "x"])
    assert eval_monomial(m, {"x": b}) == mul(a, b)
    m_rev = monomial(REL2, ["x", a])
    assert eval_monomial(m_rev, {"x": b}) == mul(b, a)
    assert mul(a, b) != mul(b, a)


def test_eval_distributes_over_sum_and_product():
    rng = random.Random(23)
    for sr in (COUNTING, REL2):
        for _ in range(40):
            sys = random_system(sr, rng, 3)
            p = rhs_poly(sys, "x")
            q = rhs_poly(sys, "y")
            v = random_point(sr, rng, sys.variables)
            assert eval_poly(poly_add(p, q), v) == add(eval_poly(p, v), eval_poly(q, v))


def test_substitute_occurrence_splices_in_place():
    m = monomial(COUNTING, [ct(2), "x", ct(3), "y"])
    g = monomial(COUNTING, [ct(5), "z", ct(7)])
    out = substitute_occurrence(m, 0, g)
    assert out == monomial(COUNTING, [ct(10), "z", ct(21), "y"])
    out2 = substitute_occurrence(m, 1, monomial(COUNTING, [ct(5)]))
    assert out2 == monomial(COUNTING, [ct(2), "x", ct(15)])


def test_equation_system_splits_constants():
    sys = counting_system_xyz()
    assert sys.a == {"x": ct(0), "y": ct(0), "z": ct(2)}
    assert sys.f["z"].is_zero
    assert sys.f["x"].monomials == (monomial(COUNTING, ["y", "y"]),)
    assert rhs_poly(sys, "z") == poly_of_value(COUNTING, ct(2))
    assert eval_rhs(sys, {"x": ct(0), "y": ct(0), "z": ct(0)}) == {
        "x": ct(0),
        "y": ct(0),
        "z": ct(2),
    }


def test_equation_system_rejects_bad_shapes():
    with pytest.raises(InvariantError):
        equation_system(
            COUNTING,
            ("x", "x"),
            {"x": poly_of_var(COUNTING, "x")},
        )
    with pytest.raises(InvariantError):
        equation_system(COUNTING, ("x",), {"x": poly_of_var(COUNTING, "y")})
    with pytest.raises(InvariantError):
        equation_system(COUNTING, ("x",), {"x": poly_of_var(COUNTING, "x"), "y": polynomial(COUNTING, [])})


def monomial_key(m: Monomial):
    return (m.coefficients, m.variables)


def distinct_monomials(pairs):
    seen = []
    for _, m in pairs:
        if monomial_key(m) not in {monomial_key(k) for k in seen}:
            seen.append(m)
    return seen


def test_monomial_chains_reach_exactly_the_expected_set():
    sys = counting_system_xyz()
    pairs = enumerate_linear_monomial_substitutions(sys, "x", 2)
    expected = {
        ("x",),
        ("y", "y"),
        ("z", "y"),
        ("y", "z"),
    }
    assert {m.variables for _, m in pairs} == expected
    # all coefficients stay units here
    assert all(all(c == ct(1) for c in m.coefficients) for _, m in pairs)
    # deeper bounds add nothing: the chain cannot leave the spine
    more = enumerate_linear_monomial_substitutions(sys, "x", 6)
    assert {m.variables for _, m in more} == expected
    assert {m.variables for _, m in enumerate_linear_monomial_substitutions(sys, "y", 6)} == {
        ("y",),
        ("z",),
    }
    assert {m.variables for _, m in enumerate_linear_monomial_substitutions(sys, "z", 6)} == {
        ("z",)
    }


def test_monomial_chain_traces_are_well_formed():
    sys = counting_system_xyz()
    pairs = enumerate_linear_monomial_substitutions(sys, "x", 3)
    assert pairs[0][0] == (IDENTITY_STEP,)
    for trace, _ in pairs:
        assert trace[-1] == IDENTITY_STEP
        steps = trace[:-1]
        assert all(isinstance(s, SubstitutionStep) for s in steps)
        for s in steps:
            target = sys.f[s.variable].monomials[s.monomial_index]
            assert 0 <= s.occurrence_index < target.degree
    # the two-step chains through both occurrences of y are distinct traces
    two_step = [t for t, _ in pairs if len(t) == 3]
    assert len(two_step) == len(set(two_step)) == 2


def test_polynomial_chains_match_monomial_results_here():
    # every defining polynomial is a single monomial, so both chain kinds agree
    sys = counting_system_xyz()
    polys = enumerate_linear_polynomial_substitutions(sys, "x", 4)
    shapes = {tuple(m.variables for m in p.monomials) for p in polys}
    assert shapes == {
        (("x",),),
        (("y", "y"),),
        (("z", "y"),),
        (("y", "z"),),
    }


def test_polynomial_chains_insert_whole_defining_polynomial():
    sys = equation_system(
        BOOLEAN,
        ("x", "y"),
        {
            "x": polynomial(
                BOOLEAN, [monomial(BOOLEAN, ["y", "y"]), monomial(BOOLEAN, ["x"])]
            ),
            "y": poly_of_value(BOOLEAN, BOOLEAN.one()),
        },
    )
    polys = enumerate_linear_polynomial_substitutions(sys, "x", 1)
    shapes = {tuple(m.variables for m in p.monomials) for p in polys}
    assert (("y", "y"), ("x",)) in shapes
    assert (("x",),) in shapes
    assert len(polys) == 4


def test_differential_of_square_doubles():
    p = polynomial(COUNTING, [monomial(COUNTING, ["y", "y"])])
    d = differential(p, "y", {"y": ct(3)})
    assert len(d.monomials) == 2
    assert d.monomials[0] == monomial(COUNTING, ["y", ct(3)])
    assert d.monomials[1] == monomial(COUNTING, [ct(3), "y"])
    assert eval_poly(d, {"y": ct(1)}) == ct(6)


def test_differential_ignores_other_directions_and_constants():
    p = poly_add(
        polynomial(COUNTING, [monomial(COUNTING, ["y", "z"])]),
        poly_of_value(COUNTING, ct(7)),
    )
    v = {"y": ct(2), "z": ct(5)}
    dy = differential(p, "y", v)
    dz = differential(p, "z", v)
    assert dy == polynomial(COUNTING, [monomial(COUNTING, ["y", ct(5)])])
    assert dz == polynomial(COUNTING, [monomial(COUNTING, [ct(2), "z"])])
    assert differential(p, "w", v).is_zero
    assert differential(poly_of_value(COUNTING, ct(7)), "y", v).is_zero


def test_differential_keeps_noncommutative_sides_apart():
    a = REL2.value([[0, 1], [0, 0]])
    b = REL2.value([[0, 0], [1, 0]])
    p = polynomial(REL2, [monomial(REL2, [a, "x", b])])
    d = differential(p, "x", {"x": REL2.one()})
    assert d == polynomial(REL2, [monomial(REL2, [a, "x", b])])


def test_differential_is_always_linear():
    rng = random.Random(31)
    for sr in (BOOLEAN, REL2, COUNTING):
        for _ in range(30):
            sys = random_system(sr, rng, 3, max_occurrences=3)
            v = random_point(sr, rng, sys.variables)
            full = differential_full(sys.f, v)
            for p in full.values():
                for m in p.monomials:
                    assert m.degree == 1


def test_differential_full_sums_all_directions():
    sys = counting_system_xyz()
    v = {"x": ct(1), "y": ct(3), "z": ct(5)}
    full = differential_full(sys.f, v)
    assert eval_poly(full["x"], {"x": ct(0), "y": ct(1), "z": ct(0)}) == ct(6)
    assert full["y"] == polynomial(COUNTING, [monomial(COUNTING, ["z"])])
    assert full["z"].is_zero


def _differential_by_rescan(p, x, v):
    """The per-direction linearization: one rescan of p per direction."""
    sr = p.semiring
    out = []
    for m in p.monomials:
        for occ in (i for i, y in enumerate(m.variables) if y == x):
            left = m.coefficients[0]
            for y, c in zip(m.variables[:occ], m.coefficients[1 : occ + 1]):
                left = mul(mul(left, v[y]), c)
            right = sr.one()
            for y, c in zip(m.variables[occ + 1 :], m.coefficients[occ + 2 :]):
                right = mul(mul(right, v[y]), c)
            out.append(monomial(sr, [left, x, mul(m.coefficients[occ + 1], right)]))
    return polynomial(sr, out)


def test_one_pass_differential_full_matches_per_direction_differentials():
    rng = random.Random(57)
    for sr in (BOOLEAN, MIN_PLUS, COUNTING, REL2):
        for _ in range(40):
            sys = random_system(sr, rng, rng.randint(1, 4), max_occurrences=4)
            v = random_point(sr, rng, sys.variables)
            full = differential_full(sys.f, v)
            assert list(full) == list(sys.f)
            for y, p in sys.f.items():
                per_direction = [m for x in v for m in differential(p, x, v).monomials]
                assert list(full[y].monomials) == per_direction
                rescan = [m for x in v for m in _differential_by_rescan(p, x, v).monomials]
                assert per_direction == rescan

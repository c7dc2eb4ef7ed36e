"""Canonical monomials, evaluation, substitution chains, differentials."""

import random

import pytest

from gen import apply_rhs, differential, random_point, random_system
from semifix.polynomial import (
    IDENTITY_STEP,
    EquationSystem,
    InvariantError,
    Monomial,
    Polynomial,
    SubstitutionStep,
    enumerate_linear_monomial_substitutions,
    enumerate_linear_polynomial_substitutions,
    equation_system,
    eval_monomial,
    eval_poly,
    mono_of_var,
    monomial,
    poly_of_value,
    poly_of_var,
    polynomial,
    render_monomial,
    render_polynomial,
    rhs_poly,
    substitute_occurrence,
)
from semifix.semiring import BOOLEAN, COUNTING, MIN_PLUS, Value, add, mul, relation_semiring
from semifix.solver import newton_step, solve_linear

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
    assert m.factors() == [ct(1), "y", ct(3), "z", ct(1)]
    assert render_monomial(monomial(COUNTING, [ct(1)])) == "1"


def test_polynomial_drops_zero_monomials_keeps_duplicates():
    m = monomial(COUNTING, ["y"])
    p = polynomial(COUNTING, [m, mono_of_var(COUNTING, "y"), monomial(COUNTING, [ct(0), "z"])])
    assert p.monomials == (m, m)
    assert eval_poly(p, {"y": ct(3), "z": ct(9)}) == ct(6)


def test_render_polynomial():
    p = polynomial(COUNTING, [mono_of_var(COUNTING, "x"), monomial(COUNTING, [ct(2)])])
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
            p_plus_q = polynomial(sr, p.monomials + q.monomials)
            assert eval_poly(p_plus_q, v) == add(eval_poly(p, v), eval_poly(q, v))


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
    assert apply_rhs(sys, {"x": ct(0), "y": ct(0), "z": ct(0)}) == {
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


def test_a_system_built_from_rows_checks_them():
    # x = 2*y*3 + x; y = 1, over counting
    rows = (((2, ((1, 3),)), (None, ((0, None),))), ())
    sys = EquationSystem._of_rows(COUNTING, ("x", "y"), rows, [0, 1])
    built = equation_system(
        COUNTING,
        ("x", "y"),
        {
            "x": polynomial(
                COUNTING, [monomial(COUNTING, [ct(2), "y", ct(3)]), mono_of_var(COUNTING, "x")]
            ),
            "y": poly_of_value(COUNTING, ct(1)),
        },
    )
    assert sys == built and sys.f == built.f and sys.a == built.a


ROW_X = ((None, ((0, None),)),)  # the right-hand side x


@pytest.mark.parametrize(
    "variables,rows,constants,message",
    [
        (("x", "y"), (((None, ((2, None),)),), ()), [0, 1], "index 2 out of range .* 'x'"),
        (("x", "y"), ((), ((None, ((-1, None),)),)), [0, 1], "index -1 out of range .* 'y'"),
        (("x", "y"), (ROW_X, ((4, ()),)), [0, 1], "constant monomial"),
        (("x", "y"), (ROW_X,), [0, 1], "cover exactly"),
        (("x", "y"), (ROW_X, ROW_X), [0], "cover exactly"),
        (("x", "y"), (ROW_X, ROW_X, ROW_X), [0, 1, 2], "cover exactly"),
        (("x", "x"), (ROW_X, ROW_X), [0, 1], "duplicate"),
    ],
)
def test_a_system_built_from_rows_rejects_bad_rows(variables, rows, constants, message):
    with pytest.raises(InvariantError, match=message):
        EquationSystem._of_rows(COUNTING, variables, rows, constants)


def test_a_system_built_from_rows_cannot_be_rebound():
    sys = EquationSystem._of_rows(BOOLEAN, ("x",), (((None, ((0, None),)),),), [True])
    assert sys.a == {"x": BOOLEAN.one()} and sys.f == {"x": poly_of_var(BOOLEAN, "x")}
    for field in ("semiring", "variables", "f", "a", "compiled"):
        with pytest.raises(AttributeError):
            setattr(sys, field, getattr(sys, field))


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


def _direction(p, x):
    """The terms of a linear polynomial whose variable is x."""
    return polynomial(p.semiring, [m for m in p.monomials if m.variables[0] == x])


def test_differential_of_square_doubles():
    p = polynomial(COUNTING, [monomial(COUNTING, ["y", "y"])])
    d = differential(equation_system(COUNTING, ("y",), {"y": p}), {"y": ct(3)})["y"]
    assert len(d.monomials) == 2
    assert d.monomials[0] == monomial(COUNTING, ["y", ct(3)])
    assert d.monomials[1] == monomial(COUNTING, [ct(3), "y"])
    assert eval_poly(d, {"y": ct(1)}) == ct(6)


def test_differential_ignores_other_directions_and_constants():
    p = polynomial(COUNTING, [monomial(COUNTING, ["y", "z"]), monomial(COUNTING, [ct(7)])])
    seven = poly_of_value(COUNTING, ct(7))
    rhs = {"x": p, "y": seven, "z": seven, "w": seven}
    v = {"x": ct(0), "y": ct(2), "z": ct(5), "w": ct(0)}
    d = differential(equation_system(COUNTING, tuple(rhs), rhs), v)
    assert _direction(d["x"], "y") == polynomial(COUNTING, [monomial(COUNTING, ["y", ct(5)])])
    assert _direction(d["x"], "z") == polynomial(COUNTING, [monomial(COUNTING, [ct(2), "z"])])
    assert _direction(d["x"], "w").is_zero
    assert d["y"].is_zero


def test_differential_keeps_noncommutative_sides_apart():
    a = REL2.value([[0, 1], [0, 0]])
    b = REL2.value([[0, 0], [1, 0]])
    p = polynomial(REL2, [monomial(REL2, [a, "x", b])])
    d = differential(equation_system(REL2, ("x",), {"x": p}), {"x": REL2.one()})["x"]
    assert d == polynomial(REL2, [monomial(REL2, [a, "x", b])])


def test_differential_is_always_linear():
    rng = random.Random(31)
    for sr in (BOOLEAN, REL2, COUNTING):
        for _ in range(30):
            sys = random_system(sr, rng, 3, max_occurrences=3)
            v = random_point(sr, rng, sys.variables)
            full = differential(sys, v)
            for p in full.values():
                for m in p.monomials:
                    assert m.degree == 1


def test_differential_full_sums_all_directions():
    sys = counting_system_xyz()
    v = {"x": ct(1), "y": ct(3), "z": ct(5)}
    full = differential(sys, v)
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
            full = differential(sys, v)
            assert list(full) == list(sys.f)
            for y, p in sys.f.items():
                per_direction = [m for x in v for m in _direction(full[y], x).monomials]
                assert list(full[y].monomials) == per_direction
                rescan = [m for x in v for m in _differential_by_rescan(p, x, v).monomials]
                assert per_direction == rescan


def _linearize(p, v, directions):
    """The terms left * x * right of p's differential around v, per direction x.

    The Value-level linearization the payload rows replaced, kept as the
    oracle.  v holds payloads.  One scan per monomial: the left factors
    are the running prefix product, the right ones a suffix product
    computed once.  Terms keep monomial and occurrence order within a
    direction; a term with a zero side is zero and dropped.
    """
    sr = p.semiring
    mul_p, zero = sr._mul, sr._zero()
    buckets = {x: [] for x in directions}
    for m in p.monomials:
        if buckets.keys().isdisjoint(m.variables):
            continue
        cs = [c.payload for c in m.coefficients]
        at = [v[y] for y in m.variables]
        n = len(at)
        # right[k]: c_k * v(x_{k+1}) * c_{k+1} * ... * v(x_n) * c_n
        right = [None] * n + [cs[n]]
        for k in range(n - 1, 0, -1):
            right[k] = mul_p(mul_p(cs[k], at[k]), right[k + 1])
        left = cs[0]
        for occ, x in enumerate(m.variables):
            if occ:
                left = mul_p(mul_p(left, at[occ - 1]), cs[occ])
            bucket = buckets.get(x)
            if bucket is not None and left != zero and right[occ + 1] != zero:
                bucket.append(Monomial(sr, (Value(sr, left), Value(sr, right[occ + 1])), (x,)))
    return buckets


def _oracle_completion_system(sys, v):
    """u = v + D_v(u) built from the oracle's terms, directions in the key order of v."""
    at = {x: val.payload for x, val in v.items()}
    f = {}
    for x in sys.variables:
        buckets = _linearize(sys.f[x], at, v).values()
        f[x] = Polynomial(sys.semiring, tuple(m for terms in buckets for m in terms))
    return EquationSystem(sys.semiring, sys.variables, f, dict(v))


def test_payload_linearization_matches_the_value_level_oracle():
    rng = random.Random(67)
    for sr in (BOOLEAN, MIN_PLUS, COUNTING, REL2, relation_semiring(3)):
        for _ in range(25):
            sys = random_system(sr, rng, rng.randint(1, 4), max_occurrences=3)
            v = random_point(sr, rng, sys.variables)
            oracle = _oracle_completion_system(sys, v)
            assert differential(sys, v) == oracle.f
            for budget in (None, 1, 2, 3):
                got, want = newton_step(sys, v, budget), solve_linear(oracle, budget)
                assert (got.value, got.status, got.steps_used) == (
                    want.value,
                    want.status,
                    want.steps_used,
                )

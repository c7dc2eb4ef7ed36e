"""Kleene iteration, linear least solutions, and Newton steps."""

import importlib
import itertools
import random

import pytest

from gen import apply_rhs, instances_for_order_tests, linear_system, random_system
from semifix import solver
from semifix.cli import parse
from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    _apply,
    _linearize,
    _word_rows,
    equation_system,
    eval_poly,
    mono_of_var,
    monomial,
    poly_of_value,
    poly_of_var,
    polynomial,
)
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    COUNTING_CAP,
    INF,
    MIN_PLUS,
    BooleanSemiring,
    InstanceMismatchError,
    Value,
    add,
    make_function_semiring,
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
            assert apply_rhs(sys, out.value) == out.value


def test_kleene_result_is_least_among_boolean_fixed_points():
    rng = random.Random(43)
    for _ in range(30):
        sys = random_system(BOOLEAN, rng, 3)
        out = kleene_solve(sys)
        for bits in itertools.product(BOOLEAN.elements(), repeat=3):
            candidate = dict(zip(sys.variables, bits))
            if apply_rhs(sys, candidate) == candidate:
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
            lin = linear_system(sys, {x: sr.zero() for x in sys.variables}, sys.a)
            out = solve_linear(lin)
            assert out.status == STABILIZED
            for x in lin.variables:
                assert out.value[x] == add(lin.a[x], eval_poly(lin.f[x], out.value))


def test_solve_linear_is_least_for_boolean():
    rng = random.Random(59)
    for _ in range(20):
        sys = random_system(BOOLEAN, rng, 2)
        lin = linear_system(sys, {x: BOOLEAN.zero() for x in sys.variables}, sys.a)
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


def test_chain_samples_read_payloads_from_the_end_and_past_the_fixed_point():
    sys = boolean_system_xyz()
    samples = newton_solve(sys, 5).iterates
    chain = [[False, False, True], [False, True, True], [True, True, True]]
    assert len(samples) == 6
    assert [samples.payload(k) for k in range(6)] == chain + [chain[-1]] * 3
    assert [samples.payload(k) for k in range(-6, 0)] == chain + [chain[-1]] * 3
    for k in range(-6, 6):
        assert samples[k] == sys.vector(samples.payload(k))
    for k in (6, -7):
        with pytest.raises(IndexError):
            samples.payload(k)
        with pytest.raises(IndexError):
            samples[k]


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
    # a hand-built monomial with a coefficient from another instance
    odd = Monomial(BOOLEAN, (BOOLEAN.one(), MIN_PLUS.one()), ("x",))
    with pytest.raises(InstanceMismatchError):
        EquationSystem(BOOLEAN, ("x",), {"x": Polynomial(BOOLEAN, (odd,))}, {"x": BOOLEAN.one()})


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


@pytest.mark.parametrize("call", [newton_step])
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
        with pytest.raises(AttributeError):
            setattr(sys, field, getattr(sys, field))


def full_rounds(sr, rows, constants, max_iters):
    """The iteration that applies every row in every round: the oracle of `_iterate`."""
    if max_iters is None:
        max_iters = DEFAULT_KLEENE_BUDGET
    v = [sr._zero()] * len(constants)
    status, used = BUDGET_EXHAUSTED, max_iters
    for i in range(max_iters):
        nxt = _apply(sr, rows, constants, v)
        if nxt == v:
            status, used = STABILIZED, i
            break
        v = nxt
    return v, status, used


FUNCTION = make_function_semiring(BOOLEAN, ("a", "b"))
# small counts grow additively around a cycle; the large ones multiply to 2^62 or past it
COUNTS = (0, 1, 1, 2, 3, 2**31, 2**31 + 1, COUNTING_CAP // 2, COUNTING_CAP, INF)
ROW_INSTANCES = [
    BOOLEAN,
    MIN_PLUS,
    COUNTING,
    relation_semiring(2),
    relation_semiring(3),
    relation_semiring(9),
    FUNCTION,
]
BUDGETS = (0, 1, 2, 3, 5, 8, None)


def random_payload(sr, rng):
    if sr is BOOLEAN:
        return rng.random() < 0.5
    if sr is MIN_PLUS:
        return rng.choice((0, 1, 2, 5, 9, INF))
    if sr is COUNTING:
        return rng.choice(COUNTS)
    if sr is FUNCTION:
        return tuple(rng.random() < 0.5 for _ in sr.points)
    return tuple(sum(1 << j for j in range(sr.q) if rng.random() < 0.3) for _ in range(sr.q))


def random_rows(sr, rng, n):
    """Payload rows and constants of n variables; coefficients are units half the time."""

    def coefficient():
        return None if rng.random() < 0.5 else random_payload(sr, rng)

    def monomial_row():
        factors = tuple((rng.randrange(n), coefficient()) for _ in range(rng.randint(1, 2)))
        return coefficient(), factors

    rows = tuple(tuple(monomial_row() for _ in range(rng.randint(0, 3))) for _ in range(n))
    constants = [sr._zero() if rng.random() < 0.6 else random_payload(sr, rng) for _ in range(n)]
    return rows, constants


def iteration_cases(sr, seed):
    """Own rows, and their linearizations at random points, of random systems."""
    rng = random.Random(seed)
    cases = []
    for _ in range(30):
        rows, constants = random_rows(sr, rng, rng.randint(1, 8))
        at = [random_payload(sr, rng) for _ in constants]
        cases += [(rows, constants), (_linearize(sr, rows, at), at)]
    return cases


@pytest.mark.parametrize("sr", ROW_INSTANCES, ids=lambda sr: sr.name)
def test_iterate_equals_full_rounds(sr):
    for rows, constants in iteration_cases(sr, 18):
        for budget in BUDGETS:
            assert solver._iterate(sr, rows, constants, budget) == full_rounds(
                sr, rows, constants, budget
            )


def test_iterate_equals_full_rounds_on_counting_cycles():
    # x = x + y and y = y + c grow without bound; z = x*x + 2^30*y reaches 2^62 and saturates
    rows = (
        ((None, ((0, None),)), (None, ((1, None),))),
        ((None, ((1, None),)),),
        ((None, ((0, None), (0, None))), (2**30, ((1, None),))),
    )
    cases = [(rows, c) for c in ([0, 1, 0], [2**31 - 1, 2**31, 1], [COUNTING_CAP, 1, 0])]
    # x = x + y beside the constant y: from the second round on, x alone changes
    one_reader = (((None, ((0, None),)), (None, ((1, None),))), ())
    cases += [(one_reader, c) for c in ([0, 1], [1, 2**61], [COUNTING_CAP, 1])]
    # 200 is the counting workload's budget
    for rows, constants in cases:
        for budget in BUDGETS + (200,):
            assert solver._iterate(COUNTING, rows, constants, budget) == full_rounds(
                COUNTING, rows, constants, budget
            )


@pytest.mark.parametrize("sr", ROW_INSTANCES, ids=lambda sr: sr.name)
def test_word_rows_compile_as_the_equivalent_system(sr):
    # the Value-level system of monomial() and equation_system, never compiled,
    # against the rows decoded: random words, with a zero, of units only and
    # without a variable, and the parser's shapes among them
    rng = random.Random(229)
    zero, one = sr._zero(), sr._one()
    for _ in range(60):
        names = [f"x{j}" for j in range(rng.randint(1, 4))]

        def symbol():
            if rng.random() < 0.35:
                return rng.randrange(len(names))
            return (rng.choice((zero, one, random_payload(sr, rng), random_payload(sr, rng))),)

        def parser_shapes():
            j = rng.randrange(len(names))
            p, q = random_payload(sr, rng), random_payload(sr, rng)
            return [
                ((p,), (q,), j, (q,), (p,)),  # adjacent literals: order matters over relation[q]
                ((p,), j, (zero,), j),  # a zero literal inside a product
                ((one,), j, (one,), j),  # unit literals
                ((p,), (q,)),  # a product with no variable
            ]

        words = []
        for _ in names:
            ws = parser_shapes()
            for _ in range(rng.randint(0, 4)):
                ws.append(tuple(symbol() for _ in range(rng.randint(0, 5))))
            rng.shuffle(ws)
            words.append(ws)

        def factors(word):
            return [names[s] if s.__class__ is int else Value(sr, s[0]) for s in word]

        rhs = {
            x: polynomial(sr, [monomial(sr, factors(w)) for w in ws]) for x, ws in zip(names, words)
        }
        want = equation_system(sr, names, rhs)
        got = EquationSystem._of_rows(sr, tuple(names), *_word_rows(sr, words))
        assert (got.f, got.a) == (want.f, want.a)


@pytest.mark.parametrize("sr", ROW_INSTANCES, ids=lambda sr: sr.name)
def test_iterate_leaves_constants_and_start_as_given(sr):
    # a completion step passes its point itself as the constants
    resumed = 0
    for rows, constants in iteration_cases(sr, 25):
        given = list(constants)
        solver._iterate(sr, rows, constants, None)
        assert constants == given
        start = _apply(sr, rows, constants, constants)
        if start != constants:
            resumed += 1
            second = list(start)
            got = solver._iterate(sr, rows, constants, None, start)
            assert got == full_rounds(sr, rows, constants, None)
            assert constants == given and start == second
    assert resumed


@pytest.mark.parametrize("q", [2, 3])
def test_iterate_equals_full_rounds_on_tensor_companions(q, monkeypatch):
    # the companion rows and constants a tensor cycle iterates, over relation[q * q]
    tensor_module = importlib.import_module("semifix.tensor")
    calls = []

    def recorded(sr, rows, constants, max_iters):
        calls.append((sr, rows, constants))
        return full_rounds(sr, rows, constants, max_iters)

    monkeypatch.setattr(tensor_module, "_iterate", recorded)
    rng = random.Random(q)
    for _ in range(12):
        tensor_module.tensor_pipeline(random_system(relation_semiring(q), rng, rng.randint(1, 3)), 1)
    assert {sr.q for sr, _, _ in calls} == {q * q}
    for sr, rows, constants in calls:
        for budget in BUDGETS:
            assert solver._iterate(sr, rows, constants, budget) == full_rounds(
                sr, rows, constants, budget
            )


class CountingBoolean(BooleanSemiring):
    """The boolean instance, counting the payload sums and products it makes."""

    def __init__(self):
        self.ops = 0

    def _add(self, x, y):
        self.ops += 1
        return x or y

    def _mul(self, x, y):
        self.ops += 1
        return x and y


def test_a_chain_is_iterated_with_work_linear_in_its_length():
    # x1 = x2; ...; xn = 1: a full application per round makes n sums, n rounds make n^2
    sr, n = CountingBoolean(), 100
    names = [f"x{i}" for i in range(1, n + 1)]
    rhs = {x: poly_of_var(sr, y) for x, y in zip(names, names[1:])}
    rhs[names[-1]] = poly_of_value(sr, sr.one())
    sys = equation_system(sr, names, rhs)
    sr.ops = 0
    out = kleene_solve(sys)
    assert out.stabilized and out.steps_used == n
    assert out.value == {x: sr.one() for x in names}
    assert sr.ops <= 2 * n


def completion_oracle(sr, rows, at, budget):
    """The completion step as the plain linear iteration: rows linearized at `at`, from zero."""
    return solver._iterate(sr, _linearize(sr, rows, at), at, budget)


@pytest.mark.parametrize("sr", ROW_INSTANCES, ids=lambda sr: sr.name)
def test_completion_step_matches_the_linear_iteration_oracle(sr, monkeypatch):
    iterate, paths = solver._iterate, []

    def recorded(*args):
        paths.append("resumed" if len(args) > 4 and args[4] is not None else "linear")
        return iterate(*args)

    monkeypatch.setattr(solver, "_iterate", recorded)
    rng = random.Random(23)
    tally = {"confirmed": 0, "resumed": 0, "linear": 0}
    for _ in range(15):
        n = rng.randint(1, 6)
        rows, constants = random_rows(sr, rng, n)
        sys = EquationSystem._of_rows(sr, tuple(f"x{i}" for i in range(n)), rows, constants)
        zeros = [sr._zero()] * n
        points = [zeros, constants, completion_oracle(sr, rows, constants, None)[0]]
        points.append(iterate(sr, rows, constants, None)[0])  # the least solution
        points += [[random_payload(sr, rng) for _ in range(n)] for _ in range(2)]
        for at in points:
            for budget in (0, 1, 2, 3, 5, None):
                paths.clear()
                got = solver._completion_step(sys, list(at), budget)
                tally[paths[0] if paths else "confirmed"] += 1
                assert got == completion_oracle(sr, rows, at, budget)
                if at == zeros and budget != 0:
                    # no round is needed to see that zero stays zero
                    assert got == (zeros, STABILIZED, 0)
    if sr.is_idempotent:
        assert tally["confirmed"] and tally["resumed"]
    else:
        assert tally["confirmed"] == tally["resumed"] == 0


# x1 = x2*x2; ...; x6 = 1: each Newton step settles one more variable
SQUARES = parse(
    "semiring boolean;\nvars x1 x2 x3 x4 x5 x6;\n"
    + "".join(f"x{i} = x{i + 1}*x{i + 1};\n" for i in range(1, 6))
    + "x6 = 1;\n"
)
FIXED_RELATION = (
    "semiring relation 2;\nvars x y z;\nx = x*y + [[1,1],[0,1]];\n"
    "y = [[1,0],[0,0]]*y*x + [[1,1],[0,1]];\nz = z*x;\n"
)


def count_linearizations(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _linearize(*args)

    monkeypatch.setattr(solver, "_linearize", counted)
    return calls


def test_chains_linearize_only_on_changing_steps(monkeypatch):
    from semifix.munchausen import munchausen_sequence

    calls = count_linearizations(monkeypatch)
    sys = boolean_system_xyz()
    # three steps reach and confirm the fixed point; the confirming one is one application of f
    out = newton_solve(sys, 8)
    assert out.stabilized and out.iterates[-1] == kleene_solve(sys).value
    assert len(calls) == 2
    calls.clear()
    assert munchausen_sequence(sys, 3).iterates == [out.iterates[1 << k] for k in range(4)]
    assert len(calls) == 2


def test_chains_from_constants_that_solve_the_system_never_linearize(monkeypatch):
    from semifix.munchausen import munchausen_sequence

    calls = count_linearizations(monkeypatch)
    fixed_boolean = parse("semiring boolean;\nvars x y;\nx = x*y + 1;\ny = 1;\n")
    for sys in (fixed_boolean, parse(FIXED_RELATION)):
        assert vector_leq(apply_rhs(sys, sys.a), sys.a)
        for seq in (newton_solve(sys, 8), munchausen_sequence(sys, 4)):
            assert seq.stabilized and seq.iterates == [sys.a] * len(seq.iterates)
    assert calls == []


def count_companion_solves(monkeypatch):
    tensor_module = importlib.import_module("semifix.tensor")
    iterate, companions = tensor_module._iterate, []

    def counted(*args):
        companions.append(args[0])
        return iterate(*args)

    monkeypatch.setattr(tensor_module, "_iterate", counted)
    return tensor_module.tensor_pipeline, companions


def test_tensor_cycles_solve_through_the_companion_at_a_fixed_point(monkeypatch):
    tensor_pipeline, companions = count_companion_solves(monkeypatch)
    sys = parse(FIXED_RELATION)
    assert tensor_pipeline(sys, 2) == sys.a
    # one application of f confirms the fixed point, with no companion solve
    assert [sr.q for sr in companions] == []


@pytest.mark.parametrize("q", [2, 3])
def test_tensor_cycles_solve_the_companion_once_per_changing_cycle(q, monkeypatch):
    from semifix.munchausen import munchausen_sequence

    tensor_pipeline, companions = count_companion_solves(monkeypatch)
    rng = random.Random(31 + q)
    for _ in range(15):
        sys = random_system(relation_semiring(q), rng, rng.randint(1, 3))
        for level in range(4):
            companions.clear()
            got = tensor_pipeline(sys, level)
            # every point of the chain of cycles, C^k(a) for k = 0..2^level
            chain = newton_solve(sys, 1 << level).iterates
            seq = munchausen_sequence(sys, level)
            assert seq.iterates == [chain[1 << k] for k in range(level + 1)]
            assert got == seq.iterates[level]
            changing = sum(chain[k] != chain[k - 1] for k in range(1, len(chain)))
            # a cycle at a point it does not change, the all-zero point included,
            # returns that point without a companion solve
            assert len(companions) == changing
            assert {sr.q for sr in companions} <= {q * q}


def test_lazy_samples_equal_eager_newton_steps():
    runs = ((boolean_system_xyz(), None, STABILIZED), (SQUARES, 3, BUDGET_EXHAUSTED))
    for sys, budget, status in runs:
        out = newton_solve(sys, 8, budget)
        assert out.status == status
        eager = [dict(sys.a)]
        while len(eager) < len(out.iterates):
            eager.append(newton_step(sys, eager[-1], budget).value)
        assert out.iterates == eager and eager == out.iterates
        assert len(out.iterates) == len(eager) and list(out.iterates) == eager
        assert out.iterates[-1] == eager[-1] and out.iterates[-len(eager)] == eager[0]
        assert out.iterates[1:3] == eager[1:3] and out.iterates[::-2] == eager[::-2]
        assert repr(out.iterates) == repr(eager)
    assert len(out.iterates) == 4  # cut by the step budget


def test_sample_text_is_the_list_of_vectors():
    from semifix.munchausen import munchausen_sequence

    # the README's library example
    sys = equation_system(
        BOOLEAN,
        ("x", "y"),
        {
            "x": polynomial(BOOLEAN, [monomial(BOOLEAN, ["y", "y"])]),
            "y": polynomial(
                BOOLEAN, [monomial(BOOLEAN, ["x"]), monomial(BOOLEAN, [BOOLEAN.one()])]
            ),
        },
    )
    one = "{'x': <boolean 1>, 'y': <boolean 1>}"
    assert str(munchausen_sequence(sys, 2).iterates) == f"[{one}, {one}, {one}]"

"""Seeded random generators and small oracles shared across the test suite."""

import random

from semifix.polynomial import (
    EquationSystem,
    _linearize,
    equation_system,
    eval_poly,
    monomial,
    polynomial,
)
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    Semiring,
    Value,
    add,
    relation_semiring,
)

VAR_NAMES = ("x", "y", "z", "w", "u", "v")


def random_value(sr: Semiring, rng: random.Random):
    """One element, biased toward small payloads."""
    if sr is BOOLEAN:
        return sr.value(rng.random() < 0.6)
    if sr is MIN_PLUS:
        return sr.value(rng.randrange(0, 10))
    if sr is COUNTING:
        return sr.value(rng.randrange(0, 4))
    if hasattr(sr, "q"):
        q = sr.q
        return sr.value([[rng.random() < 0.5 for _ in range(q)] for _ in range(q)])
    raise ValueError(f"no generator for {sr.name}")


def random_point(sr: Semiring, rng: random.Random, variables):
    return {x: random_value(sr, rng) for x in variables}


def random_monomial(sr, rng, variables, max_occurrences=2, unit_bias=0.6):
    """A canonical monomial with one or more variable occurrences."""
    degree = rng.randint(1, max_occurrences)
    factors = []
    for _ in range(degree):
        if rng.random() > unit_bias:
            factors.append(random_value(sr, rng))
        factors.append(rng.choice(variables))
    if rng.random() > unit_bias:
        factors.append(random_value(sr, rng))
    return monomial(sr, factors)


def random_system(
    sr,
    rng,
    n_vars,
    max_monomials=3,
    max_occurrences=2,
    zero_const_bias=0.4,
) -> EquationSystem:
    """A small random equation system with nonzero chance of empty parts."""
    variables = VAR_NAMES[:n_vars]
    rhs = {}
    for x in variables:
        count = rng.randint(0, max_monomials)
        monos = [
            random_monomial(sr, rng, variables, max_occurrences) for _ in range(count)
        ]
        if rng.random() > zero_const_bias:
            monos.append(monomial(sr, [random_value(sr, rng)]))
        rhs[x] = polynomial(sr, monos)
    return equation_system(sr, variables, rhs)


def random_triangular_system(
    sr, rng, n_vars, max_monomials=2, max_occurrences=2
) -> EquationSystem:
    """A system whose variable parts only mention strictly later variables.

    No cycles means finitely many derivation trees, so exhaustive tree
    enumeration is an exact oracle on these.
    """
    variables = VAR_NAMES[:n_vars]
    rhs = {}
    for i, x in enumerate(variables):
        later = variables[i + 1 :]
        monos = []
        if later:
            for _ in range(rng.randint(0, max_monomials)):
                monos.append(random_monomial(sr, rng, later, max_occurrences))
        monos.append(monomial(sr, [random_value(sr, rng)]))
        rhs[x] = polynomial(sr, monos)
    return equation_system(sr, variables, rhs)


def instances_for_order_tests():
    """The idempotent instances used throughout the comparison suites."""
    return [BOOLEAN, MIN_PLUS, relation_semiring(2)]


def random_eq1(sr, rng, n_vars, max_terms=3) -> EquationSystem:
    """A two-sided linear system: monomials a x_j b with random coefficient pairs."""
    variables = VAR_NAMES[:n_vars]
    constants = {x: random_value(sr, rng) for x in variables}

    def term():
        j = rng.choice(variables)
        a = random_value(sr, rng)
        return monomial(sr, [a, j, random_value(sr, rng)])

    f = {
        x: polynomial(sr, [term() for _ in range(rng.randint(0, max_terms))])
        for x in variables
    }
    return EquationSystem(sr, variables, f, constants)


def apply_rhs(sys: EquationSystem, v) -> dict:
    """f(v) + a by `Value` arithmetic, independent of the payload rows."""
    return {x: add(sys.a[x], eval_poly(sys.f[x], v)) for x in sys.variables}


def linear_system(sys: EquationSystem, v, constants) -> EquationSystem:
    """u = constants + D_v(u): `_linearize` on the compiled rows of sys around v."""
    rows = _linearize(sys.semiring, sys.compiled[0], sys.payloads(v))
    return EquationSystem._of_rows(sys.semiring, sys.variables, rows, sys.payloads(constants))


def differential(sys: EquationSystem, v) -> dict:
    """D_v of each variable part as a `Polynomial`, decoded from `_linearize`'s rows."""
    return linear_system(sys, v, v).f


def table_at(table: Value, args) -> Value:
    """The base value a function table holds at the argument vector args."""
    fs = table.semiring
    point = tuple(args[x].payload for x in fs.variables)
    return Value(fs.base, table.payload[fs.points.index(point)])

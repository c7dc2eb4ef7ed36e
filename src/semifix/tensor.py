"""Two-sided linear systems solved through a tensor companion.

A system x_i = c_i + sum_j a_ij x_j b_ij multiplies unknowns from both
sides.  Pairing each two-sided coefficient into transpose(a) tensor b
yields an equivalent system over a companion instance whose unknowns
carry coefficients on one side only; `solver.solve_linear` solves it
like every other linear system, and a readout projects the solution
back down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    differential_full,
    monomial,
    polynomial,
)
from semifix.semiring import Semiring, Value, add, mul, relation_semiring
from semifix.solver import (
    STABILIZED,
    BudgetExhaustedError,
    SolveOutcome,
    sample_chain,
    solve_linear,
)


@dataclass
class AdmissibleOps:
    """Transpose, tensor product, and readout tying a base to its companion."""

    base: Semiring
    tensor: Semiring
    transpose: Callable[[Value], Value]
    tensor_prod: Callable[[Value, Value], Value]
    readout: Callable[[Value], Value]


@lru_cache(maxsize=None)
def relation_admissible(q: int = 2) -> AdmissibleOps:
    """Admissible operations for q-state relations.

    The companion is the relation instance on paired states; transpose
    flips matrices, the tensor product is the Kronecker product, and
    readout collapses the diagonal of the pair rows.
    """
    base = relation_semiring(q)
    tensor = relation_semiring(q * q)

    rows = range(q)
    row_mask = (1 << q) - 1

    def transpose(a: Value) -> Value:
        m = a.payload
        return Value(base, tuple(sum((m[j] >> i & 1) << j for j in rows) for i in rows))

    def tensor_prod(a: Value, b: Value) -> Value:
        # pair row (i1, i2) holds block j1 = row i2 of b wherever row i1 of a has j1
        ma, mb = a.payload, b.payload
        return Value(
            tensor,
            tuple(
                sum(r2 << (j1 * q) for j1 in rows if r1 >> j1 & 1) for r1 in ma for r2 in mb
            ),
        )

    def readout(t: Value) -> Value:
        m = t.payload
        diagonal = 0
        for k in rows:
            diagonal |= m[k * q + k]
        return Value(base, tuple(diagonal >> (i * q) & row_mask for i in rows))

    return AdmissibleOps(base, tensor, transpose, tensor_prod, readout)


def check_admissible(ops: AdmissibleOps, quadruple_samples: int = 200, seed: int = 0):
    """Verify the laws the construction relies on.

    Unary and binary laws run over every base element, ternary laws over
    every triple, and the four-place tensor product law over a random
    sample.  Raises on the first violated law.
    """
    sr = ops.base
    if not sr.is_finite:
        raise InvariantError("law check needs a finite base instance")
    elems = list(sr.elements())
    rng = random.Random(seed)

    def law(ok: bool, name: str):
        if not ok:
            raise InvariantError(f"admissibility law failed: {name}")

    law(ops.transpose(sr.zero()) == sr.zero(), "transpose of zero")
    law(ops.transpose(sr.one()) == sr.one(), "transpose of one")
    zt = ops.tensor.zero()
    for a in elems:
        law(ops.transpose(ops.transpose(a)) == a, "transpose involution")
        law(ops.readout(ops.tensor_prod(ops.transpose(sr.one()), a)) == a, "readout of unit tensor")
        law(ops.tensor_prod(a, sr.zero()) == zt, "tensor absorbs zero on the right")
        law(ops.tensor_prod(sr.zero(), a) == zt, "tensor absorbs zero on the left")
    for a in elems:
        for b in elems:
            law(
                ops.transpose(add(a, b)) == add(ops.transpose(a), ops.transpose(b)),
                "transpose over sum",
            )
            law(
                ops.transpose(mul(a, b)) == mul(ops.transpose(b), ops.transpose(a)),
                "transpose reverses products",
            )
            law(
                ops.readout(ops.tensor_prod(ops.transpose(a), b)) == mul(a, b),
                "readout of a pure tensor",
            )
    for a in elems:
        for b in elems:
            for c in elems:
                law(
                    ops.tensor_prod(add(a, b), c)
                    == add(ops.tensor_prod(a, c), ops.tensor_prod(b, c)),
                    "tensor over sum on the left",
                )
                law(
                    ops.tensor_prod(a, add(b, c))
                    == add(ops.tensor_prod(a, b), ops.tensor_prod(a, c)),
                    "tensor over sum on the right",
                )
                law(
                    ops.readout(
                        mul(
                            ops.tensor_prod(ops.transpose(sr.one()), a),
                            ops.tensor_prod(ops.transpose(b), c),
                        )
                    )
                    == mul(mul(b, a), c),
                    "readout threads products around both sides",
                )
    for _ in range(quadruple_samples):
        a, b, c, d = (rng.choice(elems) for _ in range(4))
        law(
            mul(ops.tensor_prod(a, b), ops.tensor_prod(c, d))
            == ops.tensor_prod(mul(a, c), mul(b, d)),
            "tensor respects products",
        )
        law(
            ops.readout(
                add(
                    ops.tensor_prod(ops.transpose(a), b),
                    ops.tensor_prod(ops.transpose(c), d),
                )
            )
            == add(mul(a, b), mul(c, d)),
            "readout over sums of pure tensors",
        )


@dataclass
class Eq1System:
    """Equations x_i = c_i + sum over terms (j, a, b) of a x_j b."""

    semiring: Semiring
    variables: tuple[str, ...]
    constants: dict[str, Value]
    terms: dict[str, tuple[tuple[str, Value, Value], ...]]

    def __post_init__(self):
        names = set(self.variables)
        if set(self.constants) != names or set(self.terms) != names:
            raise InvariantError("constants and terms must cover every variable")
        for x in self.variables:
            for j, a, b in self.terms[x]:
                if j not in names:
                    raise InvariantError(f"term in {x} uses undeclared variable {j}")
                for v in (a, b, self.constants[x]):
                    if v.semiring is not self.semiring:
                        raise InvariantError("term coefficients off instance")


def as_equation_system(e1: Eq1System) -> EquationSystem:
    """The same system as general polynomial equations, for reference solving."""
    sr = e1.semiring
    f = {
        x: polynomial(sr, [monomial(sr, [a, j, b]) for j, a, b in e1.terms[x]])
        for x in e1.variables
    }
    return EquationSystem(sr, e1.variables, f, dict(e1.constants))


def regularize(e1: Eq1System, ops: AdmissibleOps) -> EquationSystem:
    """Fold both-sided coefficients into right coefficients over the companion.

    Term (j, a, b) of x_i becomes the monomial x_j (transpose(a) tensor
    b), and constant c_i becomes transpose(1) tensor c_i; a zero product
    drops its monomial.
    """
    if e1.semiring is not ops.base:
        raise InvariantError("system and admissible operations disagree on the instance")
    ts = ops.tensor
    one_t = ops.transpose(e1.semiring.one())

    def term(j, a, b):
        return monomial(ts, [j, ops.tensor_prod(ops.transpose(a), b)])

    f = {i: polynomial(ts, [term(*t) for t in e1.terms[i]]) for i in e1.variables}
    constants = {x: ops.tensor_prod(one_t, e1.constants[x]) for x in e1.variables}
    return EquationSystem(ts, e1.variables, f, constants)


def solve_left_linear(lls: EquationSystem) -> dict[str, Value]:
    """Least solution of a regularized system, by `solver.solve_linear`."""
    out = solve_linear(lls)
    if not out.stabilized:
        raise BudgetExhaustedError(
            f"companion solve did not stabilize within {out.steps_used} iterations"
        )
    return out.value


def eq1_of_completion(sys: EquationSystem, v: Mapping[str, Value]) -> Eq1System:
    """The completion of a system at v as a two-sided linear system.

    Freezing all but one occurrence per defining monomial at v leaves
    terms a x_j b; the least solution of those plus v itself is the
    completion value at v.
    """
    diff = differential_full(sys.f, v)
    terms = {
        x: tuple((m.variables[0], m.coefficients[0], m.coefficients[1]) for m in diff[x].monomials)
        for x in sys.variables
    }
    return Eq1System(sys.semiring, sys.variables, dict(v), terms)


def tensor_pipeline(sys: EquationSystem, n: int) -> dict[str, Value]:
    """Accelerated iterate n computed by repeated tensor solves.

    Each cycle regularizes the completion system at the current vector,
    solves it over the companion, and reads the result back: one
    completion step C.  Iterate n is C^(2^n)(a), a the constant vector,
    read off the chain of cycles by `solver.sample_chain` like every
    accelerated iterate.  A companion solve that does not stabilize
    raises `BudgetExhaustedError`.
    """
    if n < 0:
        raise InvariantError("iterate count must be nonnegative")
    q = getattr(sys.semiring, "q", None)
    if q is None:
        raise InvariantError(f"no admissible tensor operations known for {sys.semiring.name}")
    ops = relation_admissible(q)

    def cycle(v):
        y = solve_left_linear(regularize(eq1_of_completion(sys, v), ops))
        return SolveOutcome({x: ops.readout(y[x]) for x in sys.variables}, STABILIZED, 0)

    return sample_chain(cycle, dict(sys.a), n + 1, lambda k: 1 << k).iterates[n]

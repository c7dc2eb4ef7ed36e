"""Two-sided linear systems solved through a tensor companion.

A two-sided linear system is an `EquationSystem` whose monomials
a x_j b hold one variable each, such as the completion system
`solver.completion_system` builds for a completion step.  Pairing each
monomial's two coefficients into transpose(a) tensor b yields an
equivalent system over a companion instance whose unknowns carry
coefficients on one side only; `solver.solve_linear` solves it like
every other linear system, and a readout projects the solution back
down.  `tensor_pipeline` chains such cycles in `solver.sample_chain`,
the one payload chain loop, and converts only at each cycle's boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    monomial,
    polynomial,
)
from semifix.semiring import Semiring, Value, add, mul, relation_semiring
from semifix.solver import (
    BudgetExhaustedError,
    completion_system,
    sample_chain,
    solve_linear,
)

# Seed of the random sample the four-place laws are checked on.
LAW_SAMPLE_SEED = 0


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


def check_admissible(ops: AdmissibleOps, quadruple_samples: int = 200):
    """Verify the laws the construction relies on.

    Unary and binary laws run over every base element, ternary laws over
    every triple, and the four-place tensor product law over a random
    sample drawn with `LAW_SAMPLE_SEED`.  Raises on the first violated law.
    """
    sr = ops.base
    if not sr.is_finite:
        raise InvariantError("law check needs a finite base instance")
    elems = list(sr.elements())
    rng = random.Random(LAW_SAMPLE_SEED)

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


def as_equation_system(lin: EquationSystem) -> EquationSystem:
    """The system itself, for reference solving.

    A two-sided linear system already is an `EquationSystem`; this
    identity stays because the acceptance gate imports it.
    """
    return lin


def regularize(lin: EquationSystem, ops: AdmissibleOps) -> EquationSystem:
    """Fold both-sided coefficients into right coefficients over the companion.

    Monomial a x_j b of x_i becomes the monomial x_j (transpose(a)
    tensor b), and constant c_i becomes transpose(1) tensor c_i; a zero
    product drops its monomial.  A monomial of higher degree is rejected.
    """
    if lin.semiring is not ops.base:
        raise InvariantError("system and admissible operations disagree on the instance")
    ts = ops.tensor
    one_t = ops.transpose(lin.semiring.one())

    def term(x, m):
        if m.degree > 1:
            raise InvariantError(f"two-sided linear term of {x!r} has degree {m.degree}")
        a, b = m.coefficients
        return monomial(ts, [m.variables[0], ops.tensor_prod(ops.transpose(a), b)])

    f = {x: polynomial(ts, [term(x, m) for m in lin.f[x].monomials]) for x in lin.variables}
    constants = {x: ops.tensor_prod(one_t, lin.a[x]) for x in lin.variables}
    return EquationSystem(ts, lin.variables, f, constants)


def solve_left_linear(lls: EquationSystem) -> dict[str, Value]:
    """Least solution of a regularized system, by `solver.solve_linear`."""
    out = solve_linear(lls)
    if not out.stabilized:
        raise BudgetExhaustedError(
            f"companion solve did not stabilize within {out.steps_used} iterations"
        )
    return out.value


def tensor_pipeline(sys: EquationSystem, n: int) -> dict[str, Value]:
    """Accelerated iterate n computed by repeated tensor solves.

    Each cycle regularizes the completion system at the current vector,
    the one `solver.newton_step` solves (`solver.completion_system`),
    solves it over the companion, and reads the result back: one
    completion step C.  Iterate n is C^(2^n)(a), a the constant vector,
    read off the chain of cycles by `solver.sample_chain`, the one chain
    loop; a cycle takes and returns payload lists.  A companion solve
    that does not stabilize raises `BudgetExhaustedError`.
    """
    q = getattr(sys.semiring, "q", None)
    if q is None:
        raise InvariantError(f"no admissible tensor operations known for {sys.semiring.name}")
    ops = relation_admissible(q)

    def cycle(at):
        y = solve_left_linear(regularize(completion_system(sys, sys.vector(at)), ops))
        return [ops.readout(y[x]).payload for x in sys.variables]

    return sample_chain(sys, cycle, sys.a, n, lambda k: 1 << k).iterates[n]

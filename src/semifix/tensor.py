"""Two-sided linear systems solved through a tensor companion.

A two-sided linear system is an `EquationSystem` whose monomials
a x_j b hold one variable each, such as a completion step's
differential.  Pairing each monomial's coefficients into transpose(a)
tensor b gives an equivalent system over a companion instance with
coefficients on one side only, and a readout projects its solution
back down.  `regularize` and `solve_left_linear` do this on `Value`s,
`tensor_pipeline` on the payload rows of Newton's completion step.  A
pipeline cycle confirms a fixed point C(v) = v through the completion
step's own guard, one application of f (`solver._second_round`), and
solves the companion only when the point changes.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    _linearize,
    monomial,
    polynomial,
)
from semifix.semiring import Semiring, Value, _Record, add, mul, relation_semiring
from semifix.solver import (
    STABILIZED,
    BudgetExhaustedError,
    _iterate,
    _second_round,
    sample_chain,
    solve_linear,
)

# Seed of the random sample the four-place laws are checked on.
LAW_SAMPLE_SEED = 0

# Most states of a companion `tensor_pipeline` builds: relation[q] pairs
# its states, and relation[16] (256 states) still runs in well under a second.
MAX_COMPANION_STATES = 256


class AdmissibleOps(_Record):
    """Transpose, tensor product, and readout tying a base to its companion."""

    def __init__(
        self,
        base: Semiring,
        tensor: Semiring,
        transpose: Callable[[Value], Value],
        tensor_prod: Callable[[Value, Value], Value],
        readout: Callable[[Value], Value],
    ):
        self.base = base
        self.tensor = tensor
        self.transpose = transpose
        self.tensor_prod = tensor_prod
        self.readout = readout


@lru_cache(maxsize=None)
def _relation_kernels(q: int) -> tuple[Callable, Callable, Callable]:
    """Transpose, Kronecker product and readout on q-state relation payloads."""
    rows = range(q)
    row_mask = (1 << q) - 1

    def transpose(m):
        return tuple(sum((m[j] >> i & 1) << j for j in rows) for i in rows)

    def kronecker(ma, mb):
        # pair row (i1, i2) holds block j1 = row i2 of b wherever row i1 of a has j1:
        # r2 times the spread of r1, whose set bits sit q apart, so no block carries
        out = []
        for r1 in ma:
            spread = sum(1 << (j * q) for j in rows if r1 >> j & 1)
            out += [r2 * spread for r2 in mb]
        return tuple(out)

    def readout(m):
        diagonal = 0
        for k in rows:
            diagonal |= m[k * q + k]
        return tuple(diagonal >> (i * q) & row_mask for i in rows)

    return transpose, kronecker, readout


@lru_cache(maxsize=None)
def relation_admissible(q: int = 2) -> AdmissibleOps:
    """Admissible operations for q-state relations.

    The companion is the relation instance on paired states; transpose
    flips matrices, the tensor product is the Kronecker product, and
    readout collapses the diagonal of the pair rows.
    """
    base, tensor = relation_semiring(q), relation_semiring(q * q)
    transpose, kronecker, readout = _relation_kernels(q)
    return AdmissibleOps(
        base,
        tensor,
        lambda a: Value(base, transpose(a.payload)),
        lambda a, b: Value(tensor, kronecker(a.payload, b.payload)),
        lambda t: Value(base, readout(t.payload)),
    )


def check_admissible(ops: AdmissibleOps, quadruple_samples: int = 200):
    """Verify the laws the construction relies on.

    Unary and binary laws run over every base element, ternary laws over
    every triple, and the four-place tensor product law over a random
    sample drawn with `LAW_SAMPLE_SEED`.  Raises on the first violated law.
    """
    import random  # only the law check draws a sample; the `tensor` command never does

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

    A cycle is Newton's completion step C on payload rows with the
    companion in between.  At the all-zero point, and at a point v that
    `solver._second_round` confirms, v + f(v) = v, the cycle returns v,
    since C(v) = v; it cannot resume from that round otherwise, because
    the companion's second iterate is a different payload.  At any
    other point the compiled rows, linearized at v, become x_j
    (transpose(a) tensor b) for each term a x_j b and transpose(1)
    tensor c for each constant c, are iterated over the companion, and
    each component is read back out.  Iterate n is C^(2^n)(a), a the constant vector, read off the
    chain of cycles by `solver.sample_chain`.  A companion of more than
    `MAX_COMPANION_STATES` states, or a companion solve that does not
    stabilize, raises `BudgetExhaustedError`.
    """
    q = getattr(sys.semiring, "q", None)
    if q is None:
        raise InvariantError(f"no admissible tensor operations known for {sys.semiring.name}")
    if q * q > MAX_COMPANION_STATES:
        raise BudgetExhaustedError(
            f"the tensor companion of {sys.semiring.name} has {q * q} states,"
            f" more than MAX_COMPANION_STATES = {MAX_COMPANION_STATES}"
        )
    sr, ts = sys.semiring, relation_semiring(q * q)
    transpose, kronecker, readout = _relation_kernels(q)
    zero, one = sr._zero(), sr._one()  # transpose(1) == 1; a linearized side of None is a unit

    def cycle(at):
        if at.count(zero) == len(at) or _second_round(sr, sys.compiled[0], at, None) == at:
            return at
        rows = tuple(
            tuple((None, ((j, kronecker(transpose(a or one), b or one)),)) for a, ((j, b),) in row)
            for row in _linearize(sr, sys.compiled[0], at)
        )
        y, status, used = _iterate(ts, rows, [kronecker(one, c) for c in at], None)
        if status != STABILIZED:
            raise BudgetExhaustedError(
                f"companion solve did not stabilize within {used} iterations"
            )
        return [readout(t) for t in y]

    return sample_chain(sys, cycle, None, n, lambda k: 1 << k).iterates[n]

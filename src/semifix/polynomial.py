"""Polynomials in non-commuting variables with semiring coefficients.

A monomial interleaves coefficients and variables as c0 x1 c1 ... xl cl,
always carrying an explicit coefficient slot between neighbouring
variables and at both ends.  A polynomial is a finite sum of monomials.
Equation systems pair each variable with a right-hand side split into a
variable part (monomials that contain at least one variable) and a
constant part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from semifix.semiring import (
    Semiring,
    Value,
    add,
    add_all,
    mul,
)


class InvariantError(AssertionError):
    """A structural invariant of the workbench was violated."""


Factor = Union[Value, str]


@dataclass(frozen=True)
class Monomial:
    """One product c0 x1 c1 ... xl cl in canonical interleaved form.

    `coefficients` always has one more entry than `variables`.  The zero
    monomial is the canonical constant with payload zero; a nonzero
    monomial never stores a zero coefficient because zero absorbs the
    whole product.
    """

    semiring: Semiring
    coefficients: tuple[Value, ...]
    variables: tuple[str, ...]

    @property
    def degree(self) -> int:
        return len(self.variables)

    @property
    def is_constant(self) -> bool:
        return not self.variables

    @property
    def is_zero(self) -> bool:
        return not self.variables and self.coefficients[0] == self.semiring.zero()

    def factors(self) -> list[Factor]:
        """The interleaved coefficient and variable sequence."""
        out: list[Factor] = [self.coefficients[0]]
        for x, c in zip(self.variables, self.coefficients[1:]):
            out.append(x)
            out.append(c)
        return out

    def occurrences(self, x: str) -> list[int]:
        return [i for i, y in enumerate(self.variables) if y == x]

    def __repr__(self) -> str:
        return f"<monomial {render_monomial(self)}>"


def monomial(sr: Semiring, factors: Sequence[Factor]) -> Monomial:
    """Build a canonical monomial from an interleaved factor sequence.

    Variables are named by strings; everything else must be a value of
    the given instance.  Missing coefficients between variables are
    implied units, adjacent values are multiplied together, and any zero
    coefficient collapses the whole monomial to zero.
    """
    zero, one = sr.zero(), sr.one()
    coefficients: list[Value] = [one]
    variables: list[str] = []
    for f in factors:
        if isinstance(f, str):
            variables.append(f)
            coefficients.append(one)
        elif isinstance(f, Value):
            if f.semiring is not sr:
                raise InvariantError(
                    f"monomial over {sr.name} got a {f.semiring.name} coefficient"
                )
            coefficients[-1] = mul(coefficients[-1], f)
        else:
            raise InvariantError(f"monomial factor must be a value or a variable, got {f!r}")
    if any(c == zero for c in coefficients):
        return Monomial(sr, (zero,), ())
    return Monomial(sr, tuple(coefficients), tuple(variables))


def mono_of_value(sr: Semiring, v: Value) -> Monomial:
    return monomial(sr, [v])


def mono_of_var(sr: Semiring, x: str) -> Monomial:
    return monomial(sr, [x])


def render_monomial(m: Monomial, suppress_units: bool = True) -> str:
    """Human-readable product; unit coefficients hidden unless asked for."""
    one = m.semiring.one()
    parts: list[str] = []
    for f in m.factors():
        if isinstance(f, str):
            parts.append(f)
        elif not suppress_units or f != one:
            parts.append(m.semiring.render(f))
    if not parts:
        return m.semiring.render(one)
    return "*".join(parts)


@dataclass(frozen=True)
class Polynomial:
    """A finite sum of nonzero monomials over one instance.

    The monomial order is kept as given; duplicates are legal and add up,
    which matters for instances where addition is not idempotent.
    """

    semiring: Semiring
    monomials: tuple[Monomial, ...]

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __repr__(self) -> str:
        return f"<polynomial {render_polynomial(self)}>"


def polynomial(sr: Semiring, monomials: Iterable[Monomial]) -> Polynomial:
    """Sum of monomials with zero summands dropped."""
    kept = []
    for m in monomials:
        if m.semiring is not sr:
            raise InvariantError("polynomial mixes semiring instances")
        if not m.is_zero:
            kept.append(m)
    return Polynomial(sr, tuple(kept))


def poly_zero(sr: Semiring) -> Polynomial:
    return Polynomial(sr, ())


def poly_of_value(sr: Semiring, v: Value) -> Polynomial:
    return polynomial(sr, [mono_of_value(sr, v)])


def poly_of_var(sr: Semiring, x: str) -> Polynomial:
    return polynomial(sr, [mono_of_var(sr, x)])


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.semiring is not q.semiring:
        raise InvariantError("polynomial sum mixes semiring instances")
    return Polynomial(p.semiring, p.monomials + q.monomials)


def render_polynomial(p: Polynomial, suppress_units: bool = True) -> str:
    if p.is_zero:
        return p.semiring.render(p.semiring.zero())
    return " + ".join(render_monomial(m, suppress_units) for m in p.monomials)


def eval_monomial(m: Monomial, v: Mapping[str, Value]) -> Value:
    out = m.coefficients[0]
    for x, c in zip(m.variables, m.coefficients[1:]):
        out = mul(mul(out, v[x]), c)
    return out


def eval_poly(p: Polynomial, v: Mapping[str, Value]) -> Value:
    """Value of p at a point, summing monomial values in order."""
    return add_all(p.semiring, (eval_monomial(m, v) for m in p.monomials))


def substitute_occurrence(m: Monomial, occ: int, g: Monomial) -> Monomial:
    """Splice monomial g in place of the variable at position occ."""
    fs = m.factors()
    pos = 2 * occ + 1
    return monomial(m.semiring, fs[:pos] + g.factors() + fs[pos + 1 :])


@dataclass
class EquationSystem:
    """Simultaneous equations x = f_x + a_x, one per variable.

    `f` holds the variable parts (every monomial mentions at least one
    variable) and `a` the constant offsets.  All right-hand sides may
    only mention declared variables.
    """

    semiring: Semiring
    variables: tuple[str, ...]
    f: dict[str, Polynomial]
    a: dict[str, Value]

    def __post_init__(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise InvariantError("duplicate variable names")
        if set(self.f) != declared or set(self.a) != declared:
            raise InvariantError("equations must cover exactly the declared variables")
        for x in self.variables:
            if self.a[x].semiring is not self.semiring:
                raise InvariantError("constant part from a different instance")
            for m in self.f[x].monomials:
                if m.is_constant:
                    raise InvariantError("variable part contains a constant monomial")
                for y in m.variables:
                    if y not in declared:
                        raise InvariantError(f"undeclared variable {y!r} in equation for {x!r}")


def equation_system(
    sr: Semiring, variables: Sequence[str], rhs: Mapping[str, Polynomial]
) -> EquationSystem:
    """Split full right-hand sides into variable parts and constants."""
    if set(rhs) != set(variables):
        raise InvariantError("equations must cover exactly the declared variables")
    f: dict[str, Polynomial] = {}
    a: dict[str, Value] = {}
    for x in variables:
        p = rhs[x]
        with_vars = [m for m in p.monomials if not m.is_constant]
        consts = [m.coefficients[0] for m in p.monomials if m.is_constant]
        f[x] = Polynomial(sr, tuple(with_vars))
        a[x] = add_all(sr, consts)
    return EquationSystem(sr, tuple(variables), f, a)


def rhs_poly(sys: EquationSystem, x: str) -> Polynomial:
    """Full right-hand side f_x + a_x with the constant written last."""
    if sys.a[x] == sys.semiring.zero():
        return sys.f[x]
    return poly_add(sys.f[x], poly_of_value(sys.semiring, sys.a[x]))


def eval_rhs(sys: EquationSystem, v: Mapping[str, Value]) -> dict[str, Value]:
    """One application of the system's right-hand sides at a point."""
    return {x: add(eval_poly(sys.f[x], v), sys.a[x]) for x in sys.variables}


def zero_vector(sys: EquationSystem) -> dict[str, Value]:
    return {x: sys.semiring.zero() for x in sys.variables}


@dataclass(frozen=True)
class SubstitutionStep:
    """One elementary replacement inside a substitution chain.

    The variable at the current position is replaced by the monomial
    with this index in its defining equation, and the occurrence index
    picks the variable position inside that monomial where the chain
    continues.
    """

    variable: str
    monomial_index: int
    occurrence_index: int


IDENTITY_STEP = "identity"

SubstitutionTrace = tuple  # steps followed by the closing identity marker


def enumerate_linear_monomial_substitutions(
    sys: EquationSystem, x: str, max_steps: int
) -> list[tuple[SubstitutionTrace, Monomial]]:
    """All monomial substitution chains from x of bounded length.

    Each chain starts at the lone variable x, repeatedly replaces the
    variable at its current position by one monomial of that variable's
    equation, picks the occurrence where the next replacement happens,
    and closes with the identity marker.  Results are ordered breadth
    first; ties follow monomial then occurrence index.  Distinct chains
    may produce equal monomials; callers deduplicate when summing.
    """
    sr = sys.semiring
    if x not in sys.f:
        raise InvariantError(f"unknown variable {x!r}")
    results: list[tuple[SubstitutionTrace, Monomial]] = []
    frontier: list[tuple[tuple[SubstitutionStep, ...], Monomial, int]] = [
        ((), mono_of_var(sr, x), 0)
    ]
    for depth in range(max_steps + 1):
        next_frontier = []
        for steps, mono, pos in frontier:
            results.append((steps + (IDENTITY_STEP,), mono))
            if depth == max_steps:
                continue
            var = mono.variables[pos]
            for j, mj in enumerate(sys.f[var].monomials):
                spliced = substitute_occurrence(mono, pos, mj)
                for occ in range(mj.degree):
                    step = SubstitutionStep(var, j, occ)
                    if spliced.is_zero:
                        # collapsed product, chain cannot continue
                        results.append((steps + (step, IDENTITY_STEP), spliced))
                    else:
                        next_frontier.append((steps + (step,), spliced, pos + occ))
        frontier = next_frontier
    return results


def enumerate_linear_polynomial_substitutions(
    sys: EquationSystem, x: str, max_steps: int
) -> list[Polynomial]:
    """All polynomial substitution chains from x of bounded length.

    Like the monomial chains, but each replacement inserts the whole
    defining polynomial of the current variable, and the chain continues
    at one occurrence inside one of the freshly inserted monomials.
    """
    sr = sys.semiring
    if x not in sys.f:
        raise InvariantError(f"unknown variable {x!r}")
    results: list[Polynomial] = []
    # frontier entries: (polynomial, active monomial index, occurrence position)
    frontier: list[tuple[Polynomial, int, int]] = [(poly_of_var(sr, x), 0, 0)]
    for depth in range(max_steps + 1):
        next_frontier = []
        for poly, idx, pos in frontier:
            results.append(poly)
            if depth == max_steps:
                continue
            target = poly.monomials[idx]
            var = target.variables[pos]
            expansion = sys.f[var]
            if expansion.is_zero:
                # no defining monomials, so no replacement step exists
                continue
            pieces = []
            continuations = []
            for gm in expansion.monomials:
                spliced = substitute_occurrence(target, pos, gm)
                if spliced.is_zero:
                    continue
                for occ in range(gm.degree):
                    continuations.append((idx + len(pieces), pos + occ))
                pieces.append(spliced)
            new_monos = poly.monomials[:idx] + tuple(pieces) + poly.monomials[idx + 1 :]
            new_poly = Polynomial(sr, new_monos)
            if continuations:
                for cont_idx, cont_pos in continuations:
                    next_frontier.append((new_poly, cont_idx, cont_pos))
            else:
                # every inserted piece collapsed, chain cannot continue
                results.append(new_poly)
        frontier = next_frontier
    return results


def differential(p: Polynomial, x: str, v: Mapping[str, Value]) -> Polynomial:
    """Linearization of p in the direction of x around the point v.

    Sums pass through unchanged; for each occurrence of x inside a
    monomial the surrounding factors are evaluated at v and x itself
    stays symbolic.  Monomials without x contribute nothing.  The result
    mentions x at most once per monomial.
    """
    sr = p.semiring
    out = []
    for m in p.monomials:
        for occ in m.occurrences(x):
            left = m.coefficients[0]
            for y, c in zip(m.variables[:occ], m.coefficients[1 : occ + 1]):
                left = mul(mul(left, v[y]), c)
            right = sr.one()
            for y, c in zip(m.variables[occ + 1 :], m.coefficients[occ + 2 :]):
                right = mul(mul(right, v[y]), c)
            out.append(monomial(sr, [left, x, mul(m.coefficients[occ + 1], right)]))
    return polynomial(sr, out)


def differential_full(
    pvec: Mapping[str, Polynomial], v: Mapping[str, Value]
) -> dict[str, Polynomial]:
    """Componentwise differential, summed over all variable directions."""
    out: dict[str, Polynomial] = {}
    for comp, p in pvec.items():
        total = poly_zero(p.semiring)
        for x in v:
            total = poly_add(total, differential(p, x, v))
        out[comp] = total
    return out

"""Polynomials in non-commuting variables with semiring coefficients.

A monomial interleaves coefficients and variables as c0 x1 c1 ... xl cl,
always carrying an explicit coefficient slot between neighbouring
variables and at both ends.  A polynomial is a finite sum of monomials.
Equation systems pair each variable with a right-hand side split into a
variable part (monomials that contain at least one variable) and a
constant part.

The work runs on payload rows.  A system is its compiled rows
(`EquationSystem.compiled`): the parser builds them directly, and a
system built from `Polynomial`s compiles them once.  `_word_rows` is
the one writer of rows and constants, from coded words: for the
parser, for `_compile`, for the counting chain's word sums and for the
two oracles' layers.  `_apply` evaluates rows on
payload lists in variable order, and `_linearize` turns rows into the
rows of the completion system at a payload point.  `Value`,
`Monomial` and `Polynomial` are the boundary: a system decodes its
`f` and `a` from the rows only when they are read (`_decode`, the
inverse of `_compile`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from operator import itemgetter

from semifix.semiring import (
    InstanceMismatchError,
    Semiring,
    Value,
    _Frozen,
    _frozen,
    add_all,
    mul,
)


class InvariantError(AssertionError):
    """A structural invariant of the workbench was violated."""


Factor = Value | str


class Monomial(_Frozen):
    """One product c0 x1 c1 ... xl cl in canonical interleaved form.

    `coefficients` always has one more entry than `variables`.  The zero
    monomial is the canonical constant with payload zero; a nonzero
    monomial never stores a zero coefficient because zero absorbs the
    whole product.  Monomials are frozen and equal when their instance,
    coefficients and variables are.
    """

    def __init__(
        self, semiring: Semiring, coefficients: tuple[Value, ...], variables: tuple[str, ...]
    ):
        vars(self).update(semiring=semiring, coefficients=coefficients, variables=variables)

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


def render_monomial(m: Monomial) -> str:
    """Human-readable product; unit coefficients hidden."""
    one = m.semiring.one()
    parts: list[str] = []
    for f in m.factors():
        if isinstance(f, str):
            parts.append(f)
        elif f != one:
            parts.append(m.semiring.render(f))
    if not parts:
        return m.semiring.render(one)
    return "*".join(parts)


class Polynomial(_Frozen):
    """A finite sum of nonzero monomials over one instance.

    The monomial order is kept as given; duplicates are legal and add up,
    which matters for instances where addition is not idempotent.
    Polynomials are frozen and equal when their instance and monomials
    are.
    """

    def __init__(self, semiring: Semiring, monomials: tuple[Monomial, ...]):
        vars(self).update(semiring=semiring, monomials=monomials)

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


def poly_of_value(sr: Semiring, v: Value) -> Polynomial:
    return polynomial(sr, [mono_of_value(sr, v)])


def poly_of_var(sr: Semiring, x: str) -> Polynomial:
    return polynomial(sr, [mono_of_var(sr, x)])


def render_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return p.semiring.render(p.semiring.zero())
    return " + ".join(render_monomial(m) for m in p.monomials)


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


class EquationSystem:
    """Simultaneous equations x = f_x + a_x, one per variable.

    A system is its payload rows, `compiled`: per variable, in variable
    order, the monomials of its variable part as (c0, ((variable index,
    coefficient), ...)) over payloads, a unit coefficient as None, and
    the payload of its constant.  `f` (the variable parts as
    `Polynomial`s, every monomial mentioning at least one variable) and
    `a` (the constants as `Value`s) are its `Value`-level view.  The
    constructor takes that view, checks that every right-hand side
    mentions declared variables only, and compiles it on first use;
    `_of_rows` takes the rows and decodes `f` and `a` only when one is
    read.  Systems are equal when their instance, variables and rows
    are, and are not hashable.  No attribute can be rebound, so the
    cached forms stay the system's.
    """

    __setattr__ = __delattr__ = _frozen

    def __init__(self, semiring: Semiring, variables: tuple[str, ...], f: dict, a: dict):
        vars(self).update(semiring=semiring, variables=variables, f=f, a=a)
        self.__post_init__()

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

    @classmethod
    def _of_rows(
        cls, semiring: Semiring, variables: tuple[str, ...], rows: tuple, constants: list
    ) -> EquationSystem:
        """The system whose compiled form is (rows, constants), checked here.

        One row and one constant per variable, every variable index in
        range and every monomial with at least one variable; payloads
        are taken as checked by whoever read them.
        """
        n = len(variables)
        if len(set(variables)) != n:
            raise InvariantError("duplicate variable names")
        if len(rows) != n or len(constants) != n:
            raise InvariantError("equations must cover exactly the declared variables")
        for x, row in zip(variables, rows):
            for _, factors in row:
                if not factors:
                    raise InvariantError("variable part contains a constant monomial")
                for j, _ in factors:
                    if not 0 <= j < n:
                        raise InvariantError(
                            f"variable index {j} out of range in equation for {x!r}"
                        )
        self = cls.__new__(cls)
        vars(self).update(semiring=semiring, variables=variables, compiled=(rows, constants))
        return self

    @cached_property
    def compiled(self) -> tuple[tuple, list]:
        """The right-hand sides as payload rows and constants, built once.

        Compiled from `f` and `a` (`_compile`) unless the system was
        built from its rows.
        """
        index = {x: i for i, x in enumerate(self.variables)}
        rows = _compile(self.semiring, (self.f[x] for x in self.variables), index)
        return rows, [self.a[x].payload for x in self.variables]

    @cached_property
    def f(self) -> dict[str, Polynomial]:
        return dict(zip(self.variables, _decode(self.semiring, self.compiled[0], self.variables)))

    @cached_property
    def a(self) -> dict[str, Value]:
        return self.vector(self.compiled[1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.semiring, self.variables, self.compiled) == (
            other.semiring,
            other.variables,
            other.compiled,
        )

    def __repr__(self) -> str:
        return f"EquationSystem(semiring={self.semiring!r}, variables={self.variables!r})"

    def payloads(self, v: Mapping[str, Value]) -> list:
        """The payloads of a vector in variable order.

        v must hold a value of this instance for exactly the declared
        variables: a missing or an extra variable is an
        `InvariantError`, a value of another instance an
        `InstanceMismatchError`.
        """
        sr = self.semiring
        try:
            at = [_payload(sr, v[x]) for x in self.variables]
        except KeyError as exc:
            raise InvariantError(f"vector has no value for {exc.args[0]!r}") from None
        if len(v) != len(at):
            declared = set(self.variables)
            extra = ", ".join(repr(x) for x in v if x not in declared)
            raise InvariantError(f"vector has values for undeclared {extra}")
        return at

    def vector(self, payloads: Sequence) -> dict[str, Value]:
        """The vector whose payloads, in variable order, are `payloads`."""
        sr = self.semiring
        return {x: Value(sr, p) for x, p in zip(self.variables, payloads)}


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
    sr = sys.semiring
    if sys.a[x] == sr.zero():
        return sys.f[x]
    return Polynomial(sr, sys.f[x].monomials + poly_of_value(sr, sys.a[x]).monomials)


def _payload(sr: Semiring, val: Value) -> object:
    if val.semiring is not sr:
        raise InstanceMismatchError(
            f"cannot combine {sr.name} system with {val.semiring.name} value"
        )
    return val.payload


def _compile(sr: Semiring, polys: Iterable[Polynomial], index: Mapping[str, int]) -> tuple:
    """Payload rows of polynomials, variables numbered by `index`.

    Each monomial c0 x1 c1 ... xl cl is coded as the word (c0,) i1 (c1,)
    ... il (cl,), ik the index of xk, for `_word_rows` to write; the
    constant a monomial without a variable would add to is not returned.
    """

    def word(m):
        coded = [(_payload(sr, m.coefficients[0]),)]
        for y, c in zip(m.variables, m.coefficients[1:]):
            coded += (index[y], (_payload(sr, c),))
        return coded

    return _word_rows(sr, ([word(m) for m in p.monomials] for p in polys))[0]


def _decode(sr: Semiring, rows: Sequence, names: Sequence[str]) -> list[Polynomial]:
    """The `Polynomial`s of payload rows, variable j named names[j]: `_compile` inverted."""
    unit = sr.one()

    def monomial_of(c0, factors):
        coefficients = (c0, *(c for _, c in factors))
        return Monomial(
            sr,
            tuple(unit if c is None else Value(sr, c) for c in coefficients),
            tuple(names[j] for j, _ in factors),
        )

    return [Polynomial(sr, tuple(monomial_of(*m) for m in row)) for row in rows]


def _apply(sr: Semiring, rows: Sequence, constants: Sequence, u: Sequence) -> list:
    """constants + rows(u), componentwise, on payload lists.

    Applied with the instance's own `_add` and `_mul`: no `Value` is
    built per operation.  Addition is commutative and associative in
    every instance, so starting each sum at the constant gives the same
    payload as summing the monomials first.
    """
    add_p, mul_p = sr._add, sr._mul
    out = []
    for monos, total in zip(rows, constants):
        for c0, factors in monos:
            p = c0
            for j, c in factors:
                p = u[j] if p is None else mul_p(p, u[j])
                if c is not None:
                    p = mul_p(p, c)
            total = add_p(total, p)
        out.append(total)
    return out


def _word_rows(sr: Semiring, words_per_variable: Iterable) -> tuple[tuple, list]:
    """Payload rows and constants summing coded words: the one writer of row entries.

    One row and one constant per variable, from its list of coded
    words: an int is a variable index, a tuple holds a coefficient
    payload as its first item.  Each word with a variable is its own
    row entry (c0, ((variable index, c1), ...)), so equal products add
    up; adjacent coefficients are multiplied with `_mul`, a unit
    coefficient is None, and a word whose product holds a zero is
    dropped.  A word without a variable adds its product, one when it
    has no coefficient either, to the constant.
    """
    add_p, mul_p, zero, one = sr._add, sr._mul, sr._zero(), sr._one()
    rows, constants = [], []
    for words in words_per_variable:
        row, total = [], zero
        for word in words:
            c0 = slot = last = None  # slot: the coefficient read since `last`, a variable index
            pairs = []
            live = True  # no coefficient is zero
            for s in word:
                if s.__class__ is tuple:
                    slot = s[0] if slot is None else mul_p(slot, s[0])
                    continue
                if slot is not None:
                    if slot == one:
                        slot = None
                    elif slot == zero:
                        live = False
                if last is None:
                    c0 = slot
                else:
                    pairs.append((last, slot))
                last, slot = s, None
            if last is None:
                total = add_p(total, one if slot is None else slot)
            elif live and slot != zero:
                pairs.append((last, None if slot == one else slot))
                row.append((c0, tuple(pairs)))
        rows.append(tuple(row))
        constants.append(total)
    return tuple(rows), constants


class SubstitutionStep(_Frozen):
    """One elementary replacement inside a substitution chain.

    The variable at the current position is replaced by the monomial
    with this index in its defining equation, and the occurrence index
    picks the variable position inside that monomial where the chain
    continues.  Steps are frozen and equal when their fields are.
    """

    def __init__(self, variable: str, monomial_index: int, occurrence_index: int):
        vars(self).update(
            variable=variable, monomial_index=monomial_index, occurrence_index=occurrence_index
        )


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


def _linearize(sr: Semiring, rows: Sequence, at: Sequence) -> tuple:
    """The rows of the differential of `rows` around the payload point `at`.

    Each occurrence of x_j in a monomial c0 x1 c1 ... xl cl yields the
    term left * x_j * right, every other occurrence frozen at `at`, as
    the row monomial (left, ((j, right),)); None stands for a unit
    side.  One scan per monomial: left is the running prefix product,
    right a suffix product computed once.  A term with a zero side is
    zero and dropped.  Within a row the terms come direction by
    direction in index order, then in monomial and occurrence order.
    """
    mul_p, zero = sr._mul, sr._zero()

    def prod(p, q):
        if p is None:
            return q
        return p if q is None else mul_p(p, q)

    out = []
    for row in rows:
        terms = []
        for c0, factors in row:
            if not factors:
                continue
            # right[k]: c_k at(x_k+1) c_k+1 ... at(x_l) c_l, the side right of occurrence k
            right = [factors[-1][1]]
            for k in range(len(factors) - 2, -1, -1):
                right.append(prod(prod(factors[k][1], at[factors[k + 1][0]]), right[-1]))
            right.reverse()
            left = c0
            for k, (j, _) in enumerate(factors):
                if k:
                    prev_j, prev_c = factors[k - 1]
                    left = prod(prod(left, at[prev_j]), prev_c)
                if left != zero and right[k] != zero:
                    terms.append((j, left, right[k]))
        terms.sort(key=itemgetter(0))
        out.append(tuple((left, ((j, right),)) for j, left, right in terms))
    return tuple(out)

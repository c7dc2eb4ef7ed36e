"""Fixed-point solvers: Kleene iteration, linear systems, Newton steps."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    Polynomial,
    differential_full,
    eval_poly,
    eval_rhs,
    zero_vector,
)
from semifix.semiring import Semiring, Value, add

STABILIZED = "stabilized"
BUDGET_EXHAUSTED = "budget-exhausted"


class BudgetExhaustedError(RuntimeError):
    """An iteration budget ran out where a caller required stabilization."""


@dataclass
class SolveOutcome:
    """Result vector plus how it was reached.

    `steps_used` counts right-hand side applications; a stabilized
    outcome needed exactly that many to stop changing.
    """

    value: dict[str, Value]
    status: str
    steps_used: int

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED


@dataclass
class SequenceOutcome:
    """A list of iterates plus the status of the run that produced them.

    When the status reports budget exhaustion the list holds the
    iterates finished before the budget ran out.
    """

    iterates: list[dict[str, Value]]
    status: str

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED


def kleene_solve(sys: EquationSystem, max_iters: int = 10000) -> SolveOutcome:
    """Ascending iteration of the right-hand sides from the zero vector.

    Stops as soon as one application leaves the vector unchanged, which
    over finite or saturating carriers also catches diverging chains.
    """
    v = zero_vector(sys)
    for used in range(max_iters):
        nxt = eval_rhs(sys, v)
        if nxt == v:
            return SolveOutcome(v, STABILIZED, used)
        v = nxt
    return SolveOutcome(v, BUDGET_EXHAUSTED, max_iters)


@dataclass
class LinearSystem:
    """Equations u = seed + rhs(u) whose monomials hold at most one variable."""

    semiring: Semiring
    variables: tuple[str, ...]
    rhs: dict[str, Polynomial]
    seed: dict[str, Value]

    def __post_init__(self):
        declared = set(self.variables)
        if set(self.rhs) != declared or set(self.seed) != declared:
            raise InvariantError("linear system must cover exactly its variables")
        for x in self.variables:
            for m in self.rhs[x].monomials:
                if m.degree > 1:
                    raise InvariantError(
                        f"linear right-hand side for {x!r} has a degree {m.degree} monomial"
                    )
                for y in m.variables:
                    if y not in declared:
                        raise InvariantError(f"undeclared variable {y!r} in linear system")


def _magnitude(v: Value) -> int:
    p = v.payload
    if isinstance(p, bool):
        return 0
    if isinstance(p, int):
        return abs(p)
    return 0


def default_linear_budget(lin: LinearSystem) -> int:
    """Iteration allowance scaled by system size and coefficient growth."""
    magnitudes = [0]
    for v in lin.seed.values():
        magnitudes.append(_magnitude(v))
    for p in lin.rhs.values():
        for m in p.monomials:
            for c in m.coefficients:
                magnitudes.append(_magnitude(c))
    return 10 * (len(lin.variables) + 1) * max(64, max(magnitudes))


def solve_linear(lin: LinearSystem, max_iters: int | None = None) -> SolveOutcome:
    """Least solution of u = seed + rhs(u) by iteration from zero.

    Each iterate equals the sum of all application chains up to that
    length, so the run is exact even without idempotence; it just may
    not stabilize within the budget when the system keeps growing.
    """
    if max_iters is None:
        max_iters = default_linear_budget(lin)
    u = {x: lin.semiring.zero() for x in lin.variables}
    for used in range(max_iters):
        nxt = {x: add(lin.seed[x], eval_poly(lin.rhs[x], u)) for x in lin.variables}
        if nxt == u:
            return SolveOutcome(u, STABILIZED, used)
        u = nxt
    return SolveOutcome(u, BUDGET_EXHAUSTED, max_iters)


def newton_step(
    sys: EquationSystem, v: Mapping[str, Value], max_linear_iters: int | None = None
) -> SolveOutcome:
    """The completion step C(v): least solution of u = v + D(u), D taken around v.

    Newton iteration, the idempotent doubling iterates and the
    differential star all apply this one step.  It depends on v alone,
    so once C(v) == v every further application repeats it exactly.
    """
    lin = LinearSystem(
        sys.semiring,
        sys.variables,
        differential_full(sys.f, v),
        dict(v),
    )
    return solve_linear(lin, max_linear_iters)


def newton_solve(
    sys: EquationSystem, n_steps: int, max_linear_iters: int | None = None
) -> SequenceOutcome:
    """Newton iterates from the constant vector.

    Returns the iterates up to and including step n_steps.  Once a step
    leaves its vector unchanged no further linear system is solved: the
    remaining iterates repeat that fixed point.  The update relies on
    idempotent addition; running it anyway on other instances is allowed
    for comparison and flagged with a warning.  A linear solve that
    exhausts its budget aborts the run with partial results.
    """
    if not sys.semiring.is_idempotent:
        warnings.warn(
            f"newton iteration over non-idempotent {sys.semiring.name} may overshoot",
            RuntimeWarning,
            stacklevel=2,
        )
    v = eval_rhs(sys, zero_vector(sys))
    iterates = [v]
    fixed = False
    for _ in range(n_steps):
        if not fixed:
            outcome = newton_step(sys, v, max_linear_iters)
            if not outcome.stabilized:
                return SequenceOutcome(iterates, BUDGET_EXHAUSTED)
            fixed = outcome.value == v
            v = outcome.value
        iterates.append(v)
    return SequenceOutcome(iterates, STABILIZED)

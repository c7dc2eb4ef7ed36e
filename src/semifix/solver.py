"""Fixed-point solvers: Kleene iteration, linear systems, completion-step chains.

A linear system is an `EquationSystem` whose monomials hold one variable
each; `kleene_solve` and `solve_linear` run the same iteration from zero
and differ only in their budgets and the degree check.  That iteration,
`_iterate`, compiles the system once and loops over raw payloads, so
`Value` stays the boundary of the module, not the unit of its work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping

from semifix.polynomial import (
    EquationSystem,
    InvariantError,
    compile_rhs,
    differential_full,
)
from semifix.semiring import Value

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


DEFAULT_KLEENE_BUDGET = 10_000


def _iterate(sys: EquationSystem, max_iters: int) -> SolveOutcome:
    """Apply the right-hand sides from zero until the vector stops changing.

    The system is compiled once (`compile_rhs`) and iterated over lists
    of raw payloads in variable order; only the result is wrapped in
    `Value`s.
    """
    sr = sys.semiring
    apply = compile_rhs(sys)
    v = [sr._zero()] * len(sys.variables)
    status, used = BUDGET_EXHAUSTED, max_iters
    for i in range(max_iters):
        nxt = apply(v)
        if nxt == v:
            status, used = STABILIZED, i
            break
        v = nxt
    return SolveOutcome({x: Value(sr, p) for x, p in zip(sys.variables, v)}, status, used)


def kleene_solve(sys: EquationSystem, max_iters: int = DEFAULT_KLEENE_BUDGET) -> SolveOutcome:
    """Ascending iteration of the right-hand sides from the zero vector.

    Stops as soon as one application leaves the vector unchanged, which
    over finite or saturating carriers also catches diverging chains.
    """
    return _iterate(sys, max_iters)


def _magnitude(v: Value) -> int:
    p = v.payload
    if isinstance(p, bool):
        return 0
    if isinstance(p, int):
        return abs(p)
    return 0


def default_linear_budget(sys: EquationSystem) -> int:
    """Iteration allowance scaled by system size and coefficient growth."""
    magnitudes = [0]
    for v in sys.a.values():
        magnitudes.append(_magnitude(v))
    for p in sys.f.values():
        for m in p.monomials:
            for c in m.coefficients:
                magnitudes.append(_magnitude(c))
    return 10 * (len(sys.variables) + 1) * max(64, max(magnitudes))


def solve_linear(sys: EquationSystem, max_iters: int | None = None) -> SolveOutcome:
    """Least solution of a system whose monomials hold one variable each.

    The same iteration from zero as `kleene_solve`.  Each iterate equals
    the sum of all application chains up to that length, so the run is
    exact even without idempotence; it just may not stabilize within the
    budget when the system keeps growing.  A monomial of higher degree
    is rejected.
    """
    for x in sys.variables:
        for m in sys.f[x].monomials:
            if m.degree > 1:
                raise InvariantError(
                    f"linear right-hand side for {x!r} has a degree {m.degree} monomial"
                )
    if max_iters is None:
        max_iters = default_linear_budget(sys)
    return _iterate(sys, max_iters)


def newton_step(
    sys: EquationSystem, v: Mapping[str, Value], max_linear_iters: int | None = None
) -> SolveOutcome:
    """The completion step C(v): least solution of u = v + D(u), D taken around v.

    Newton iteration, the idempotent accelerated iterates, the
    differential star and the function table all apply it.  It depends
    on v alone, so once C(v) == v every further application repeats it.
    """
    lin = EquationSystem(sys.semiring, sys.variables, differential_full(sys.f, v), dict(v))
    return solve_linear(lin, max_linear_iters)


def sample_chain(
    step: Callable[[dict[str, Value]], SolveOutcome],
    v: dict[str, Value],
    samples: int,
    steps_at: Callable[[int], int],
) -> SequenceOutcome:
    """Samples 0..samples-1 of the chain v, step(v), step(step(v)), ...

    Sample k is taken after steps_at(k) steps, nondecreasing in k.  The
    first fixed point fills all later samples, whose step counts are not
    computed; a step that does not stabilize ends the run, flagged.
    """
    iterates: list[dict[str, Value]] = []
    taken = 0
    for k in range(samples):
        target = steps_at(k)
        while taken < target:
            out = step(v)
            if not out.stabilized:
                return SequenceOutcome(iterates, BUDGET_EXHAUSTED)
            taken += 1
            if out.value == v:
                iterates.extend(repeat(v, samples - k))
                return SequenceOutcome(iterates, STABILIZED)
            v = out.value
        iterates.append(v)
    return SequenceOutcome(iterates, STABILIZED)


def newton_solve(
    sys: EquationSystem, n_steps: int, max_linear_iters: int | None = None
) -> SequenceOutcome:
    """Newton iterates 0..n_steps from the constant vector.

    They sample the chain of completion steps at every step count.  The
    update relies on idempotent addition; other instances are run for
    comparison and flagged with a warning.  A linear solve that exhausts
    its budget aborts the run with partial results.
    """
    if not sys.semiring.is_idempotent:
        warnings.warn(
            f"newton iteration over non-idempotent {sys.semiring.name} may overshoot",
            RuntimeWarning,
            stacklevel=2,
        )
    return sample_chain(
        lambda u: newton_step(sys, u, max_linear_iters), dict(sys.a), n_steps + 1, lambda k: k
    )

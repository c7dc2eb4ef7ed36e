"""Fixed-point solvers: Kleene iteration, linear systems, completion-step chains.

A linear system is an `EquationSystem` whose monomials hold one variable
each; `kleene_solve` and `solve_linear` run the same iteration from zero
and differ only in the degree check.  That iteration, `_iterate`,
compiles the system once and loops over raw payloads, so `Value` stays
the boundary of the module, not the unit of its work.  It is also the
one place a missing budget becomes `DEFAULT_KLEENE_BUDGET`.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
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


class ChainSamples(Sequence):
    """Read-only samples of a chain that reached a fixed point.

    Holds the samples computed before the fixed point and the fixed
    point once; every later index reads the fixed point, so memory does
    not grow with the number of samples.  `len` and indexing are O(1);
    it compares equal to, and prints as, the list of the same items.
    """

    def __init__(self, prefix: list[dict[str, Value]], length: int):
        self._prefix = prefix
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(self._length)[k]]
        if k < 0:
            k += self._length
        if not 0 <= k < self._length:
            raise IndexError("chain sample index out of range")
        return self._prefix[min(k, len(self._prefix) - 1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SequenceOutcome:
    """A sequence of iterates plus the status of the run that produced them.

    When the status reports budget exhaustion the sequence holds the
    iterates finished before the budget ran out.
    """

    iterates: Sequence[dict[str, Value]]
    status: str

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED


DEFAULT_KLEENE_BUDGET = 10_000


def _iterate(sys: EquationSystem, max_iters: int | None) -> SolveOutcome:
    """Apply the right-hand sides from zero until the vector stops changing.

    At most `max_iters` applications, `DEFAULT_KLEENE_BUDGET` (read at
    call time) when it is None.  The system is compiled once
    (`compile_rhs`) and iterated over lists of raw payloads in variable
    order; only the result is wrapped in `Value`s.
    """
    if max_iters is None:
        max_iters = DEFAULT_KLEENE_BUDGET
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


def kleene_solve(sys: EquationSystem, max_iters: int | None = None) -> SolveOutcome:
    """Ascending iteration of the right-hand sides from the zero vector.

    Stops as soon as one application leaves the vector unchanged, which
    over finite or saturating carriers also catches diverging chains.
    """
    return _iterate(sys, max_iters)


def solve_linear(sys: EquationSystem, max_iters: int | None = None) -> SolveOutcome:
    """Least solution of a system whose monomials hold one variable each.

    The same iteration from zero as `kleene_solve`.  Each iterate equals
    the sum of all application chains up to that length, so the run is
    exact even without idempotence; it just may not stabilize within the
    budget (`DEFAULT_KLEENE_BUDGET` by default) when the system keeps
    growing.  A monomial of higher degree is rejected.
    """
    for x in sys.variables:
        for m in sys.f[x].monomials:
            if m.degree > 1:
                raise InvariantError(
                    f"linear right-hand side for {x!r} has a degree {m.degree} monomial"
                )
    return _iterate(sys, max_iters)


def completion_system(sys: EquationSystem, v: Mapping[str, Value]) -> EquationSystem:
    """The linear system u = v + D(u) whose least solution is C(v).

    D is the differential of the variable parts taken around v: each
    monomial a x_j b of it holds one variable, with every other
    occurrence frozen at v.  `newton_step` solves it directly and
    `tensor.tensor_pipeline` through the tensor companion.
    """
    return EquationSystem(sys.semiring, sys.variables, differential_full(sys.f, v), dict(v))


def newton_step(
    sys: EquationSystem, v: Mapping[str, Value], max_linear_iters: int | None = None
) -> SolveOutcome:
    """The completion step C(v): `solve_linear` on `completion_system(sys, v)`.

    Newton iteration, the idempotent accelerated iterates, the
    differential star and the function table all apply it, and a
    tensor cycle solves the same system over the companion.  It depends
    on v alone, so once C(v) == v every further application repeats it.
    """
    return solve_linear(completion_system(sys, v), max_linear_iters)


def sample_chain(
    step: Callable[[dict[str, Value]], SolveOutcome],
    v: dict[str, Value],
    samples: int,
    steps_at: Callable[[int], int],
) -> SequenceOutcome:
    """Samples 0..samples-1 of the chain v, step(v), step(step(v)), ...

    Sample k is taken after steps_at(k) steps, nondecreasing in k.  The
    first fixed point fills all later samples, whose step counts are not
    computed, as a `ChainSamples` view that stores it once; a step that
    does not stabilize ends the run, flagged.
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
                iterates.append(v)
                return SequenceOutcome(ChainSamples(iterates, samples), STABILIZED)
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

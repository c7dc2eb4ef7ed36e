"""Fixed-point solvers: Kleene iteration, linear systems, completion-step chains.

A linear system is an `EquationSystem` whose monomials hold one variable
each; `kleene_solve` and `solve_linear` run the same iteration from zero
and differ only in the degree check.  The unit of work is a payload
row: that iteration, `_iterate`, loops over raw payload lists on a
system's compiled rows, and a completion step linearizes those rows at
a payload point (`polynomial._linearize`) and iterates the result, or
their companion rows for a tensor cycle.  Its rounds are semi-naive:
the first application from zero is the constants, and each later round
re-applies only the rows that read a component the previous round
changed, which gives every iterate of a full application.  Over an
idempotent instance a completion step's second round is one
application of the system's own rows (`_second_round`), so a point
the step leaves unchanged is confirmed without linearizing; a tensor
cycle confirms it the same way and solves its companion only when the
point changes.
`sample_chain` is the one chain loop: Newton, the accelerated iterates
(over counting, a step applies compiled word sums) and the tensor
cycles all step there.
`Value` is the boundary of the module's public functions: they convert
their vectors once on entry and wrap each result once, and a
`ChainSamples` view wraps a sample when it is indexed.  The command
line stays below that boundary, on payload lists from the parsed rows
to the printed text: it calls `_iterate`, `_completion` and
`ChainSamples.payload`, which the public functions wrap.  A missing
budget becomes `DEFAULT_KLEENE_BUDGET`, read at call time, in
`_iterate`, in `_second_round` and, for Newton's steps, in
`newton_solve`.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping, Sequence

from semifix.polynomial import EquationSystem, InvariantError, _apply, _linearize
from semifix.semiring import Semiring, Value, _Record

STABILIZED = "stabilized"
BUDGET_EXHAUSTED = "budget-exhausted"


class BudgetExhaustedError(RuntimeError):
    """An iteration budget ran out where a caller required stabilization."""


class SolveOutcome(_Record):
    """Result vector plus how it was reached.

    `steps_used` counts right-hand side applications, the rounds of
    `_iterate`, each of which may re-apply only some rows; a stabilized
    outcome needed exactly that many to stop changing.  Outcomes are
    equal when their fields are, and are not hashable.
    """

    def __init__(self, value: dict[str, Value], status: str, steps_used: int):
        self.value = value
        self.status = status
        self.steps_used = steps_used

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED


class ChainSamples(Sequence):
    """Read-only samples of a chain, kept as payload lists until read.

    `payloads` holds the computed samples, and the view reads as
    `length` samples: every index past the last computed one reads the
    last, so a run that reached a fixed point stores it once and memory
    does not grow with the number of samples.  Indexing wraps the
    sample that `payload` reads in `Value`s (`EquationSystem.vector`),
    so a caller that reads only the last sample wraps only that one, and
    one that reads `payload` wraps none.  `len`, `payload` and indexing
    are O(1); it compares equal to, and prints as, the list of the same
    items.
    """

    def __init__(self, sys: EquationSystem, payloads: list[list], length: int):
        self._sys = sys
        self._payloads = payloads
        self._length = length

    def __len__(self) -> int:
        return self._length

    def payload(self, k: int) -> list:
        """Sample k as the payload list the chain stored, to be read, not written.

        A negative k counts from the end, and k past the last computed
        sample reads the last; k outside the view is an `IndexError`.
        """
        if k < 0:
            k += self._length
        if not 0 <= k < self._length:
            raise IndexError("chain sample index out of range")
        return self._payloads[min(k, len(self._payloads) - 1)]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(self._length)[k]]
        return self._sys.vector(self.payload(k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class SequenceOutcome(_Record):
    """A sequence of iterates plus the status of the run that produced them.

    When the status reports budget exhaustion the sequence holds the
    iterates finished before the budget ran out.  The iterates are a
    `ChainSamples` view, which wraps an iterate only when it is read.
    Outcomes are equal when their fields are, and are not hashable.
    """

    def __init__(self, iterates: Sequence[dict[str, Value]], status: str):
        self.iterates = iterates
        self.status = status

    @property
    def stabilized(self) -> bool:
        return self.status == STABILIZED


DEFAULT_KLEENE_BUDGET = 10_000
# Rounds of each dimension layer's linear solve in a derivation tree sum
# (`grammar.tree_sum`, the `oracle` command) when no budget is given; kept
# here so that the command line reads it without loading `grammar`.
DEFAULT_NODE_BUDGET = 5_000


def _iterate(
    sr: Semiring,
    rows: Sequence,
    constants: Sequence,
    max_iters: int | None,
    start: list | None = None,
) -> tuple[list, str, int]:
    """Apply constants + rows from zero until the payload list stops changing.

    At most `max_iters` applications, `DEFAULT_KLEENE_BUDGET` (read at
    call time) when it is None.  Returns the last payload list, the
    status and the number of applications used.  `start`, when given,
    is the second iterate, constants + rows(constants), already computed
    by the caller and different from the constants: the rounds resume
    after it, as the second, and `max_iters` must be at least 2.

    The rounds are semi-naive: each gives the iterate a full application
    would, and re-applies only the rows that can change.  Every row
    monomial holds a variable and zero absorbs, so the first application
    at the zero list is the constants.  After that, a row is re-applied
    only when it reads a component that the previous round changed.
    Every other row reads the payloads it read in the previous round, so
    a full application would give it its current payload again.  The rows
    that read each component are collected once per call; when one
    component changed, its readers are the round's rows as they stand.
    A round reads only the previous iterate and writes each new payload
    into a copy of it, which becomes the next iterate, so the rounds are
    Jacobi rounds and `constants` and `start` are never written.  A round
    in which no re-applied row changes is the one a full application
    would have found unchanged, and it is not counted.  The row loop is
    `polynomial._apply`'s, inlined over the re-applied rows.
    """
    if max_iters is None:
        max_iters = DEFAULT_KLEENE_BUDGET
    if start is None:
        zero = sr._zero()
        v = [zero] * len(constants)
        if max_iters == 0:
            return v, BUDGET_EXHAUSTED, 0
        changed = [i for i, c in enumerate(constants) if c != zero]
        if not changed:
            return v, STABILIZED, 0
        v, first = list(constants), 1
    else:
        changed = [i for i, (p, c) in enumerate(zip(start, constants)) if p != c]
        v, first = list(start), 2
    readers = [set() for _ in rows]
    for i, monos in enumerate(rows):
        for _, factors in monos:
            for j, _ in factors:
                readers[j].add(i)
    add_p, mul_p = sr._add, sr._mul
    for used in range(first, max_iters):
        if len(changed) == 1:
            dirty = readers[changed[0]]
        else:
            dirty = set().union(*[readers[j] for j in changed])
        w, changed = v[:], []
        for i in dirty:
            total = constants[i]
            for c0, factors in rows[i]:
                p = c0
                for j, c in factors:
                    p = v[j] if p is None else mul_p(p, v[j])
                    if c is not None:
                        p = mul_p(p, c)
                total = add_p(total, p)
            if total != v[i]:
                w[i] = total
                changed.append(i)
        if not changed:
            return v, STABILIZED, used
        v = w
    return v, BUDGET_EXHAUSTED, max_iters


def _solve(sys: EquationSystem, max_iters: int | None) -> SolveOutcome:
    """`_iterate` on the system's compiled rows, the result wrapped once."""
    v, status, used = _iterate(sys.semiring, *sys.compiled, max_iters)
    return SolveOutcome(sys.vector(v), status, used)


def kleene_solve(sys: EquationSystem, max_iters: int | None = None) -> SolveOutcome:
    """Ascending iteration of the right-hand sides from the zero vector.

    Stops as soon as one application leaves the vector unchanged, which
    over finite or saturating carriers also catches diverging chains.
    """
    return _solve(sys, max_iters)


def solve_linear(sys: EquationSystem, max_iters: int | None = None) -> SolveOutcome:
    """Least solution of a system whose monomials hold one variable each.

    The same iteration from zero as `kleene_solve`.  Each iterate equals
    the sum of all application chains up to that length, so the run is
    exact even without idempotence; it just may not stabilize within the
    budget (`DEFAULT_KLEENE_BUDGET` by default) when the system keeps
    growing.  A monomial of higher degree is rejected.
    """
    for x, row in zip(sys.variables, sys.compiled[0]):
        for _, factors in row:
            if len(factors) > 1:
                raise InvariantError(
                    f"linear right-hand side for {x!r} has a degree {len(factors)} monomial"
                )
    return _solve(sys, max_iters)


def _second_round(sr: Semiring, rows: Sequence, at: list, budget: int | None) -> list | None:
    """The completion step's second iterate at `at`, when plain iteration reaches it.

    The step iterates `rows` linearized at `at` from zero, with `at` as
    the constants.  Over an idempotent instance its second iterate,
    at + D_at(at), is at + f(at): each term of the differential
    evaluates at `at` to its whole monomial, and its copies add up to
    one.  One application of the rows (`_apply`) computes it, when the
    plain iteration would reach it: `at` has a nonzero component (the
    all-zero point is stable after no round) and the budget
    (`DEFAULT_KLEENE_BUDGET`, read at call time, when None) allows a
    second round.  Otherwise None.  If it equals `at`, the step is
    stable after one round, with C(at) = at.
    """
    if budget is None:
        budget = DEFAULT_KLEENE_BUDGET
    if sr.is_idempotent and budget >= 2 and at.count(sr._zero()) < len(at):
        return _apply(sr, rows, at, at)
    return None


def _completion_step(
    sys: EquationSystem, at: list, max_linear_iters: int | None
) -> tuple[list, str, int]:
    """The completion step at the payload list `at`, as `_iterate` returns it.

    The system's compiled rows, linearized at `at`, iterated from zero
    with `at` as the constants.  When `_second_round` gives the second
    iterate and it equals `at`, the step is stable after one round and
    nothing is linearized; otherwise the linear rounds resume from it,
    or start from zero without it.  Either way the payloads, status and
    count are those of the plain iteration.
    """
    sr, rows = sys.semiring, sys.compiled[0]
    start = _second_round(sr, rows, at, max_linear_iters)
    if start == at:
        return at, STABILIZED, 1
    return _iterate(sr, _linearize(sr, rows, at), at, max_linear_iters, start)


def newton_step(
    sys: EquationSystem, v: Mapping[str, Value], max_linear_iters: int | None = None
) -> SolveOutcome:
    """The completion step C(v): the least u with u = v + D_v(u).

    D_v is the differential around v.  v is converted once, the
    system's compiled rows are linearized at it and iterated like
    `solve_linear` would (`_completion_step`; over idempotent instances
    one application of f confirms C(v) == v without linearizing), and
    the result is wrapped once.  Newton iteration, the idempotent
    accelerated iterates, the differential star and the function table
    apply it; a tensor cycle confirms C(v) == v through the same
    `_second_round` and otherwise maps its linearized rows to the
    companion.
    It depends on v alone, so once C(v) == v every further application
    repeats it.
    """
    u, status, used = _completion_step(sys, sys.payloads(v), max_linear_iters)
    return SolveOutcome(sys.vector(u), status, used)


def completion_via_differential_star(
    sys: EquationSystem, v: Mapping[str, Value] | None = None, budget: int | None = None
) -> dict[str, Value]:
    """Completion value at v through the star of the linearization at v.

    v defaults to the constants, read from the compiled system; the
    result (`_completion`) is wrapped once.
    """
    return sys.vector(_completion(sys, sys.compiled[1] if v is None else sys.payloads(v), budget))


def _completion(sys: EquationSystem, at: list, budget: int | None) -> list:
    """The completion step's payload list at `at`; `BudgetExhaustedError` if it does not stabilize."""
    u, status, used = _completion_step(sys, at, budget)
    if status != STABILIZED:
        raise BudgetExhaustedError(f"linear solve did not stabilize within {used} iterations")
    return u


def _chain_step(sys: EquationSystem, max_linear_iters: int | None) -> Callable:
    """The completion step as a `sample_chain` step: None once a linear solve is exhausted."""

    def step(at):
        u, status, _ = _completion_step(sys, at, max_linear_iters)
        return u if status == STABILIZED else None

    return step


def sample_chain(
    sys: EquationSystem,
    step: Callable,
    b: Mapping[str, Value] | None,
    n: int,
    steps_at: Callable[[int], int],
    affordable: int | None = None,
    max_steps: int | None = None,
) -> SequenceOutcome:
    """Samples 0..n of the chain b, step(b), step(step(b)), ...

    The one chain loop and the payload/`Value` boundary of every chain:
    b is converted once (`EquationSystem.payloads`), or read from the
    compiled constants when it is None, `step` maps a payload list to
    the next one, or to None when it exhausted its budget, which ends
    the run, flagged.  The samples stay payload lists, in a
    `ChainSamples` view that wraps a sample only when it is read.
    Sample k is taken after steps_at(k) steps, nondecreasing in k.  The
    first fixed point fills all later samples, whose step counts are not
    computed, and is stored once.  Only samples up to `affordable`
    (default n) are taken, and at most `max_steps` steps (default
    unbounded); a run cut short by either is flagged too.  A negative n
    is an `InvariantError`.
    """
    if n < 0:
        raise InvariantError("iterate count must be nonnegative")
    v = sys.compiled[1] if b is None else sys.payloads(b)
    last = n if affordable is None else min(n, affordable)
    status = STABILIZED if last == n else BUDGET_EXHAUSTED
    samples: list = []
    taken = 0
    for k in range(last + 1):
        target = steps_at(k)
        while taken < target:
            nxt = None if taken == max_steps else step(v)
            if nxt is None:
                return SequenceOutcome(ChainSamples(sys, samples, len(samples)), BUDGET_EXHAUSTED)
            taken += 1
            if nxt == v:
                samples.append(v)
                return SequenceOutcome(ChainSamples(sys, samples, last + 1), status)
            v = nxt
        samples.append(v)
    return SequenceOutcome(ChainSamples(sys, samples, last + 1), status)


def newton_solve(
    sys: EquationSystem, n_steps: int, max_linear_iters: int | None = None
) -> SequenceOutcome:
    """Newton iterates 0..n_steps from the constant vector.

    They sample the chain of completion steps at every step count.  The
    update relies on idempotent addition; other instances are run for
    comparison and flagged with a warning.  The budget bounds each
    linear solve and the number of steps taken; a run that exhausts it
    returns the iterates finished before, flagged.  A fixed point reached
    within it fills every later iterate without further steps.
    """
    if not sys.semiring.is_idempotent:
        warnings.warn(
            f"newton iteration over non-idempotent {sys.semiring.name} may overshoot",
            RuntimeWarning,
            stacklevel=2,
        )
    budget = DEFAULT_KLEENE_BUDGET if max_linear_iters is None else max_linear_iters
    step = _chain_step(sys, budget)
    return sample_chain(sys, step, None, n_steps, lambda k: k, max_steps=budget)

"""The record classes: construction, frozenness, equality, hashing, copies and reprs."""

import copy

import pytest

from semifix.polynomial import (
    EquationSystem,
    Monomial,
    Polynomial,
    SubstitutionStep,
    poly_of_var,
)
from semifix.semiring import BOOLEAN, COUNTING, Value
from semifix.solver import SequenceOutcome, SolveOutcome, kleene_solve, newton_solve


def boolean_system():
    return EquationSystem(BOOLEAN, ("x",), {"x": poly_of_var(BOOLEAN, "x")}, {"x": BOOLEAN.one()})


def counting_monomial():
    return Monomial(COUNTING, (COUNTING.value(2), COUNTING.value(3)), ("x",))


# name -> (a builder of one record from fresh but equal fields, its field names,
# whether it is frozen, whether it is hashable, its repr)
RECORDS = {
    "Value": (
        lambda: Value(COUNTING, 10**20),
        ("semiring", "payload"),
        True,
        True,
        f"<counting {10**20}>",
    ),
    "Monomial": (
        counting_monomial,
        ("semiring", "coefficients", "variables"),
        True,
        True,
        "<monomial 2*x*3>",
    ),
    "Polynomial": (
        lambda: Polynomial(COUNTING, (counting_monomial(), counting_monomial())),
        ("semiring", "monomials"),
        True,
        True,
        "<polynomial 2*x*3 + 2*x*3>",
    ),
    "EquationSystem": (
        boolean_system,
        ("semiring", "variables", "f", "a", "compiled"),
        True,
        False,
        f"EquationSystem(semiring={BOOLEAN!r}, variables=('x',))",
    ),
    "SubstitutionStep": (
        lambda: SubstitutionStep("x", 0, 1),
        ("variable", "monomial_index", "occurrence_index"),
        True,
        True,
        "SubstitutionStep(variable='x', monomial_index=0, occurrence_index=1)",
    ),
    "SolveOutcome": (
        lambda: kleene_solve(boolean_system()),
        ("value", "status", "steps_used"),
        False,
        False,
        "SolveOutcome(value={'x': <boolean 1>}, status='stabilized', steps_used=1)",
    ),
    "SequenceOutcome": (
        lambda: newton_solve(boolean_system(), 1),
        ("iterates", "status"),
        False,
        False,
        "SequenceOutcome(iterates=[{'x': <boolean 1>}, {'x': <boolean 1>}], status='stabilized')",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_their_equality_hash_frozenness_copies_and_repr(name):
    build, fields, frozen, hashable, text = RECORDS[name]
    record, twin = build(), build()
    values = tuple(getattr(record, f) for f in fields)
    assert record == twin and not record != twin
    assert record != values and record != list(values)
    if hashable:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    for f in fields:
        if frozen:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{f}'$"):
                setattr(record, f, getattr(record, f))
            with pytest.raises(AttributeError, match=f"^cannot delete field '{f}'$"):
                delattr(record, f)
        assert getattr(record, f) is values[fields.index(f)]
    assert copy.copy(record) == record
    assert repr(record) == text

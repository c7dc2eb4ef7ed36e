"""The record classes: construction, frozenness, equality, hashing, copies and reprs."""

import copy

import pytest

from semifix.grammar import DerivationTree, Lit, Ref, grammar_with_constants
from semifix.munchausen import (
    NonTerm,
    Terminal,
    VarTerminal,
    indexed_grammar_of,
    linear_completion_grammar,
)
from semifix.polynomial import (
    EquationSystem,
    Monomial,
    Polynomial,
    SubstitutionStep,
    poly_of_var,
)
from semifix.semiring import BOOLEAN, COUNTING, Value, mul, relation_semiring, star
from semifix.solver import SequenceOutcome, SolveOutcome, kleene_solve, newton_solve
from semifix.tensor import AdmissibleOps


def boolean_system():
    return EquationSystem(BOOLEAN, ("x",), {"x": poly_of_var(BOOLEAN, "x")}, {"x": BOOLEAN.one()})


def counting_monomial():
    return Monomial(COUNTING, (COUNTING.value(2), COUNTING.value(3)), ("x",))


def admissible_ops():
    return AdmissibleOps(relation_semiring(2), relation_semiring(4), star, mul, star)


ONE = "<boolean 1>"
TREE = f"DerivationTree(symbol=Lit(value={ONE}), children=(), rule_index=None)"


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
    "Terminal": (lambda: Terminal(BOOLEAN.one()), ("value",), True, True, f"Terminal(value={ONE})"),
    "VarTerminal": (lambda: VarTerminal("x"), ("var",), True, True, "VarTerminal(var='x')"),
    "NonTerm": (lambda: NonTerm("x", 2), ("var", "index"), True, True, "NonTerm(var='x', index=2)"),
    "LinearCfg": (
        lambda: linear_completion_grammar(boolean_system()),
        ("semiring", "variables", "level", "rules"),
        False,
        False,
        f"LinearCfg(semiring={BOOLEAN!r}, variables=('x',), level=0, rules={{NonTerm(var='x', "
        f"index=1): ((Terminal(value={ONE}), NonTerm(var='x', index=1), Terminal(value={ONE})), "
        "(VarTerminal(var='x'),))})",
    ),
    "IndexedGrammar": (
        lambda: indexed_grammar_of(boolean_system()),
        ("semiring", "variables", "recursion"),
        False,
        False,
        f"IndexedGrammar(semiring={BOOLEAN!r}, variables=('x',), recursion={{'x': ((Terminal("
        f"value={ONE}), NonTerm(var='x', index=1), Terminal(value={ONE})),)}})",
    ),
    "Lit": (lambda: Lit(BOOLEAN.one()), ("value",), True, True, f"Lit(value={ONE})"),
    "Ref": (lambda: Ref("x"), ("var",), True, True, "Ref(var='x')"),
    "Cfg": (
        lambda: grammar_with_constants(boolean_system()),
        ("semiring", "nonterminals", "rules"),
        False,
        False,
        f"Cfg(semiring={BOOLEAN!r}, nonterminals=('x',), rules={{'x': ((Lit(value={ONE}), "
        f"Ref(var='x'), Lit(value={ONE})), (Lit(value={ONE}),))}})",
    ),
    "DerivationTree": (
        lambda: DerivationTree(Lit(BOOLEAN.one())),
        ("symbol", "children", "rule_index"),
        True,
        True,
        TREE,
    ),
    "DerivationTree with children": (
        lambda: DerivationTree(Ref("x"), (DerivationTree(Lit(BOOLEAN.one())),), 1),
        ("symbol", "children", "rule_index"),
        True,
        True,
        f"DerivationTree(symbol=Ref(var='x'), children=({TREE},), rule_index=1)",
    ),
    "AdmissibleOps": (
        admissible_ops,
        ("base", "tensor", "transpose", "tensor_prod", "readout"),
        False,
        False,
        f"AdmissibleOps(base={relation_semiring(2)!r}, tensor={relation_semiring(4)!r}, "
        f"transpose={star!r}, tensor_prod={mul!r}, readout={star!r})",
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
        # a frozen record hashes as the tuple of its fields, so set orders stay put
        assert hash(record) == hash(twin) == hash(values)
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
        else:
            setattr(record, f, getattr(record, f))
        assert getattr(record, f) is values[fields.index(f)]
    assert copy.copy(record) == record
    assert repr(record) == text

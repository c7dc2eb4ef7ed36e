"""Workbench for polynomial fixed point equations over semirings.

Systems x = f(x) + a are solved by plain iteration, by iterating the
linearization, or by the accelerated iterates of doubling ladders of
completion grammars, read off one chain of completion steps;
derivation tree sums and a tensor companion construction provide
independent cross-checks for all of them.
"""

import importlib
import sys

# Each export by the module it is read from.  `import semifix` loads no
# submodule: `__getattr__` imports one on the first access to a name it
# defines (PEP 562), so a command line run loads only what its command uses.
_EXPORTS = {
    "grammar": (
        "Cfg",
        "DerivationTree",
        "decompose",
        "dimension",
        "enumerate_trees",
        "grammar_of",
        "grammar_with_constants",
        "regraft",
        "tree_sum",
        "yield_word",
    ),
    "munchausen": (
        "IndexedGrammar",
        "LinearCfg",
        "canonical_form",
        "completion_function_table",
        "evaluate_grammar",
        "expand_indexed",
        "index_shift",
        "indexed_grammar_of",
        "left_linear_completion_grammar",
        "linear_completion_grammar",
        "munchausen_grammar",
        "munchausen_sequence",
    ),
    "polynomial": (
        "EquationSystem",
        "InvariantError",
        "Monomial",
        "Polynomial",
        "enumerate_linear_monomial_substitutions",
        "enumerate_linear_polynomial_substitutions",
        "equation_system",
        "eval_monomial",
        "eval_poly",
        "monomial",
        "polynomial",
        "render_monomial",
        "render_polynomial",
    ),
    "semiring": (
        "BOOLEAN",
        "COUNTING",
        "INF",
        "MIN_PLUS",
        "InstanceMismatchError",
        "NotFiniteError",
        "Semiring",
        "Value",
        "add",
        "add_all",
        "instance_by_name",
        "make_function_semiring",
        "mul",
        "nat_leq",
        "relation_semiring",
        "star",
        "vector_eq",
        "vector_leq",
    ),
    "solver": (
        "BudgetExhaustedError",
        "SequenceOutcome",
        "SolveOutcome",
        "completion_via_differential_star",
        "kleene_solve",
        "newton_solve",
        "solve_linear",
    ),
    "tensor": (
        "AdmissibleOps",
        "check_admissible",
        "regularize",
        "relation_admissible",
        "solve_left_linear",
        "tensor_pipeline",
    ),
}

__version__ = "0.1.0"

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:  # a submodule not loaded yet
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    """The package module, with `polynomial` kept as the name of the function.

    Loading a submodule binds it on its package, and `polynomial` names
    both a submodule and the function it exports.  The binding is skipped
    for an export, so `semifix.polynomial` stays the function, as it is
    in `__all__`; the module is sys.modules["semifix.polynomial"].
    """

    def __setattr__(self, name, value):
        if not (name in _SOURCE and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

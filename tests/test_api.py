"""The package's export list, and what reaches each public definition."""

import ast
from pathlib import Path

import semifix

# Reached from outside the package only: oracles the tests compare
# against, and the text writer that tests and the benchmark corpus use.
OUTSIDE_ONLY = {"as_equation_system", "check_linear", "render"}


def test_every_export_resolves():
    missing = [name for name in semifix.__all__ if not hasattr(semifix, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert semifix.__all__ == sorted(set(semifix.__all__))


def test_every_public_definition_is_reached():
    defined, used = {}, set()
    for path in sorted(Path(semifix.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = path.stem
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and n.id != own:
                    used.add(n.id)
    reached = used | set(semifix.__all__) | OUTSIDE_ONLY | {"main"}
    assert sorted(f"{mod}.{name}" for name, mod in defined.items() if name not in reached) == []

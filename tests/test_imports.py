"""What the package loads: a one-shot command imports only the modules it runs.

Each check runs in a fresh interpreter, because this test process has
long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semifix

SRC = Path(semifix.__file__).resolve().parent.parent
# The modules that only oracle, the accelerated methods, compare, the grammar
# modes and tensor run.
ON_DEMAND = {"semifix.grammar", "semifix.munchausen", "semifix.tensor"}


def run(code: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return out.stdout


LOADED_AFTER_EACH_STEP = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("semifix."))

def added():
    return sorted(set(sys.modules) - before)

steps = {"added": {}}
before = set(sys.modules)
import semifix
steps["import semifix"] = loaded()
import semifix.cli
steps["import semifix.cli"] = loaded()
steps["added"]["import semifix.cli"] = added()
for command in ("solve", "completion"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert semifix.cli.main([command, sys.argv[1], "--json"]) == 0
    steps[command] = loaded()
    steps["added"][command] = added()
steps["parsers built"] = semifix.cli.build_parser.cache_info().misses
print(json.dumps(steps))
"""


def test_a_kleene_solve_and_a_completion_load_no_grammar_ladder_or_tensor(tmp_path):
    path = tmp_path / "b.sfx"
    path.write_text("semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x*x;\n", encoding="utf-8")
    steps = json.loads(run(LOADED_AFTER_EACH_STEP, str(path)))
    assert steps["import semifix"] == []
    for step in ("import semifix.cli", "solve", "completion"):
        assert ON_DEMAND.isdisjoint(steps[step]), step
    assert "semifix.solver" in steps["import semifix.cli"]
    assert steps["parsers built"] == 0
    # the always-loaded record classes are written without `dataclasses`
    for step, modules in steps["added"].items():
        assert {"dataclasses", "inspect"}.isdisjoint(modules), step


ADDED_BY_A_COMMAND = """
import contextlib, io, json, sys
before = set(sys.modules)
import semifix.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert semifix.cli.main([sys.argv[2], sys.argv[1], *sys.argv[3:], "--json"]) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Each command kind that loads a module of ON_DEMAND, with its options.
LAZY_COMMANDS = (
    ("compare",),
    ("tensor",),
    ("oracle",),
    ("grammar",),
    ("completion", "--table"),
    ("solve", "--method", "munchausen"),
)


@pytest.mark.parametrize("command", LAZY_COMMANDS, ids=" ".join)
def test_a_lazily_loading_command_imports_no_dataclasses_or_inspect(tmp_path, command):
    path = tmp_path / "r.sfx"
    path.write_text(
        "semiring relation 2;\nvars x y;\nx = x*y + [[0,1],[0,0]];\ny = x*x + [[1,0],[0,0]];\n",
        encoding="utf-8",
    )
    added = set(json.loads(run(ADDED_BY_A_COMMAND, str(path), *command)))
    assert ON_DEMAND & added
    # every record class, the lazily loaded ones too, is built on one plain base
    assert {"dataclasses", "inspect"}.isdisjoint(added)


ALL_MODULES = """
import json, sys
import semifix.cli, semifix.grammar, semifix.munchausen, semifix.tensor
print(json.dumps(sorted(sys.modules)))
"""


def test_no_module_imports_typing():
    # a `site` that imports `typing` itself would hide it, so the check runs without `site`
    loaded = json.loads(run(ALL_MODULES, flags=("-S",)))
    assert "semifix.solver" in loaded and "typing" not in loaded


STAR_IMPORT = """
import sys
import semifix
assert semifix.solver is sys.modules["semifix.solver"]
import semifix.cli  # loads the submodule semifix.polynomial as well
from semifix import *
names = dict(globals())
modules = [m for key, m in sys.modules.items() if key.startswith("semifix.")]
for name in semifix.__all__:
    value = names[name]
    assert not isinstance(value, type(sys)), name
    assert any(getattr(m, name, None) is value for m in modules), name
assert semifix.polynomial is polynomial is sys.modules["semifix.polynomial"].polynomial
print(len(semifix.__all__))
"""


def test_star_import_resolves_every_export_to_its_definition():
    assert run(STAR_IMPORT) == f"{len(semifix.__all__)}\n"

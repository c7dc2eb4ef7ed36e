"""What the package loads: a one-shot command imports only the modules it runs.

Each check runs in a fresh interpreter, because this test process has
long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import semifix

SRC = Path(semifix.__file__).resolve().parent.parent
# The modules that only oracle, the accelerated methods, compare, the grammar
# modes and tensor run.
ON_DEMAND = {"semifix.grammar", "semifix.munchausen", "semifix.tensor"}


def run(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
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

steps = {}
import semifix
steps["import semifix"] = loaded()
import semifix.cli
steps["import semifix.cli"] = loaded()
for command in ("solve", "completion"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert semifix.cli.main([command, sys.argv[1], "--json"]) == 0
    steps[command] = loaded()
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

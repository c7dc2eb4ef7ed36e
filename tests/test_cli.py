"""File format parsing, rendering, and command exit codes."""

import json
import random

import pytest

from gen import instances_for_order_tests, random_system
from semifix.cli import EquationSyntaxError, main, parse, render
from semifix.semiring import BOOLEAN, COUNTING, MIN_PLUS, relation_semiring

CHAIN = """\
semiring counting;
vars x y z;
x = y*y;
y = z;
z = 2;
"""


def test_parse_chain_structure():
    sys = parse(CHAIN)
    assert sys.semiring is COUNTING
    assert sys.variables == ("x", "y", "z")
    (m,) = sys.f["x"].monomials
    assert m.variables == ("y", "y")
    assert sys.a["z"].payload == 2
    assert sys.a["x"].payload == 0


def test_parse_accepts_comments_and_spacing():
    text = "semiring boolean; # header\n\nvars  x ;\n x =  x * x + 1 ;\n"
    sys = parse(text)
    assert sys.a["x"] == BOOLEAN.one()


def test_parse_relation_literals_and_parameter():
    text = "semiring relation 3; vars x; x = [[0,1,0],[0,0,1],[0,0,0]]*x + [[1,0,0],[0,1,0],[0,0,1]];"
    sys = parse(text)
    assert sys.semiring is relation_semiring(3)
    (m,) = sys.f["x"].monomials
    assert m.coefficients[0] == sys.semiring.value([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_parse_minplus_zero_literal_gives_empty_parts():
    sys = parse("semiring min-plus; vars x; x = inf;")
    assert sys.f["x"].is_zero
    assert sys.a["x"] == MIN_PLUS.zero()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("semiring sand; vars x; x = 1;", "unknown semiring"),
        ("semiring boolean 2; vars x; x = 1;", "no parameter"),
        ("semiring boolean; vars x x; x = 1;", "declared twice"),
        ("semiring boolean; vars ; x = 1;", "at least one"),
        ("semiring boolean; vars x; y = 1;", "undeclared"),
        ("semiring boolean; vars x; x = 1; x = 0;", "second equation"),
        ("semiring boolean; vars x y; x = 1;", "no equation for y"),
        ("semiring boolean; vars x; x = ;", "expected a variable or literal"),
        ("semiring boolean; vars x; x = 7;", "literal"),
        ("semiring counting; vars x; x = q;", "literal"),
        ("semiring relation; vars x; x = [[0,1],[1,0];", "unbalanced"),
        ("semiring boolean; vars x; x ? 1;", "unexpected character"),
        ("semiring boolean; vars x; x = 1", "expected ';'"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(EquationSyntaxError, match=fragment):
        parse(text)


def test_syntax_errors_carry_positions():
    with pytest.raises(EquationSyntaxError) as info:
        parse("semiring counting;\nvars x;\nx = q;", "input.sfx")
    assert str(info.value).startswith("input.sfx:3:5")
    assert (info.value.line, info.value.col) == (3, 5)


def test_parse_render_roundtrip_random_systems():
    rng = random.Random(19)
    for sr in instances_for_order_tests() + [COUNTING]:
        for _ in range(15):
            sys = random_system(sr, rng, rng.randint(1, 3))
            text = render(sys)
            assert parse(text) == sys
            assert render(parse(text)) == text


def test_render_golden():
    assert render(parse(CHAIN)) == CHAIN
    sys = parse("semiring min-plus; vars x; x = inf;")
    assert render(sys) == "semiring min-plus;\nvars x;\nx = inf;\n"


def write(tmp_path, text, name="sys.sfx"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_text_and_json(tmp_path, capsys):
    path = write(tmp_path, CHAIN)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "x = 4" in out and "stabilized" in out

    assert main(["solve", path, "--method", "munchausen", "--steps", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == "v1"
    assert data["command"] == "solve"
    assert data["values"] == {"x": "104", "y": "8", "z": "2"}
    assert data["status"] == "stabilized"


def test_compare_reports_differences_but_exits_zero(tmp_path, capsys):
    path = write(tmp_path, CHAIN)
    with pytest.warns(RuntimeWarning):
        assert main(["compare", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    verdicts = {tuple(v["pair"]): v["verdict"] for v in data["verdicts"]}
    assert verdicts[("kleene", "newton")] == "DIFFER"
    assert data["results"]["kleene"]["values"]["x"] == "4"


def test_compare_agrees_on_idempotent_input(tmp_path, capsys):
    path = write(tmp_path, "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x;\n")
    assert main(["compare", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(v["verdict"] == "OK" for v in data["verdicts"])


def test_oracle_matches_iterate(tmp_path, capsys):
    path = write(tmp_path, "semiring boolean;\nvars x y;\nx = y*y + 1;\ny = x;\n")
    assert main(["oracle", path, "--dim", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "OK"
    assert data["stabilized"] is True


def test_completion_values_and_grammar(tmp_path, capsys):
    path = write(tmp_path, CHAIN)
    assert main(["completion", path]) == 0
    assert "x = 0" in capsys.readouterr().out

    assert main(["completion", path, "--grammar"]) == 0
    out = capsys.readouterr().out
    assert "x^1 -> 1 y^1 1 y 1 | 1 y 1 y^1 1 | x" in out

    assert main(["completion", path, "--left-linear", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["grammar"]["level"] == 0


def test_left_linear_completion_needs_a_commutative_instance(tmp_path, capsys):
    path = write(tmp_path, "semiring relation 2;\nvars x;\nx = x*x + [[0,1],[1,0]];\n")
    assert main(["completion", path, "--left-linear"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "commutative" in captured.err


def test_completion_table_finite_only(tmp_path, capsys):
    path = write(tmp_path, "semiring boolean;\nvars x;\nx = x*x + 1;\n")
    assert main(["completion", path, "--table"]) == 0
    assert "->" in capsys.readouterr().out
    path = write(tmp_path, CHAIN, "chain.sfx")
    assert main(["completion", path, "--table"]) == 1


def test_grammar_level_and_indexed(tmp_path, capsys):
    path = write(tmp_path, CHAIN)
    assert main(["grammar", path, "--level", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["grammar"]["level"] == 2
    assert data["grammar"]["start"]["x"] == "x^4"

    assert main(["grammar", path, "--indexed"]) == 0
    out = capsys.readouterr().out
    assert "x[1.s] -> 1 y[1.s] 1 y[s] 1" in out
    assert "z[0] -> z" in out


def test_tensor_command(tmp_path, capsys):
    path = write(
        tmp_path,
        "semiring relation 2;\nvars x y;\nx = [[0,1],[1,0]]*y*x + [[1,0],[0,1]];\ny = x;\n",
    )
    assert main(["tensor", path, "--level", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "OK"

    boolean = write(tmp_path, "semiring boolean;\nvars x;\nx = 1;\n", "b.sfx")
    assert main(["tensor", boolean]) == 1


def test_exit_codes(tmp_path, capsys):
    assert main(["solve"]) == 1
    capsys.readouterr()
    assert main(["solve", str(tmp_path / "missing.sfx")]) == 1
    capsys.readouterr()
    bad = write(tmp_path, "semiring counting;\nvars x;\nx = q;\n")
    assert main(["solve", bad]) == 2
    err = capsys.readouterr().err
    assert ":3:5:" in err
    divergent = write(tmp_path, "semiring counting;\nvars x;\nx = x + 1;\n", "d.sfx")
    assert main(["solve", divergent, "--budget", "40"]) == 3
    capsys.readouterr()
    assert main(["completion", divergent, "--budget", "40"]) == 3
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_budget_env_variable(tmp_path, capsys, monkeypatch):
    divergent = write(tmp_path, "semiring counting;\nvars x;\nx = x + 1;\n")
    monkeypatch.setenv("SEMIFIX_BUDGET", "30")
    assert main(["solve", divergent, "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == 30
    assert main(["solve", divergent, "--budget", "25", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == 25
    monkeypatch.setenv("SEMIFIX_BUDGET", "lots")
    assert main(["solve", divergent]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--method", "munchausen", "--steps", "-1"],
        ["solve", "--budget", "-1"],
        ["compare", "--steps", "-1"],
        ["oracle", "--dim", "-1"],
        ["oracle", "--node-budget", "-1"],
        ["completion", "--budget", "-1"],
        ["grammar", "--level", "-1"],
        ["tensor", "--level", "-1"],
        ["tensor", "--budget", "-1"],
    ],
)
def test_negative_counts_are_usage_errors(tmp_path, capsys, argv):
    path = write(tmp_path, "semiring relation 2;\nvars x;\nx = x*x + [[0,1],[1,0]];\n")
    assert main([argv[0], path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_negative_budget_env_variable(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, CHAIN)
    monkeypatch.setenv("SEMIFIX_BUDGET", "-1")
    assert main(["solve", path]) == 1
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["solve", "compare", "oracle", "completion", "grammar", "tensor"]
)
def test_every_command_opens_its_json_with_the_envelope(tmp_path, capsys, command):
    path = write(tmp_path, "semiring relation 2;\nvars x;\nx = x*x + [[0,1],[1,0]];\n")
    assert main([command, path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data.items())[:2] == [("schema_version", "v1"), ("command", command)]


@pytest.mark.filterwarnings("ignore:newton iteration over non-idempotent")
def test_back_to_back_calls_match_fresh_processes(tmp_path, capsys):
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import semifix

    f = tmp_path / "chain.sfx"
    f.write_text(CHAIN)
    runs = [
        ["solve", str(f), "--budget", "5", "--json"],
        ["solve", str(f)],
        ["solve", str(f), "--method", "bogus"],
        ["compare", str(f)],
    ]
    src = str(Path(semifix.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for argv in runs:
        rc = main(argv)
        got = capsys.readouterr()
        fresh = subprocess.run(
            [_sys.executable, "-m", "semifix.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (rc, got.out) == (fresh.returncode, fresh.stdout)
        if rc == 1:
            # the usage message; warnings go to pytest's capture instead
            assert got.err == fresh.stderr

"""File format parsing, rendering, and command exit codes."""

import contextlib
import gc
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import instances_for_order_tests, random_system
from semifix import cli, grammar
from semifix.cli import EquationSyntaxError, main, parse, render
from semifix.polynomial import EquationSystem
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


def test_oracle_skips_truncated_tree_sums(tmp_path, capsys):
    path = write(tmp_path, "semiring boolean;\nvars x y;\nx = x*y + y;\ny = y*y + 1;\n")
    assert main(["oracle", path, "--node-budget", "1"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["verdict: skipped", "status: budget-exhausted"]
    assert main(["oracle", path, "--node-budget", "1", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "skipped"
    assert data["stabilized"] is False


def test_oracle_work_is_bounded_on_a_growing_system(tmp_path, capsys):
    # seed-7 counting-words 0003.sfx: x4 grows by one in every round
    path = write(
        tmp_path,
        "semiring counting;\nvars x1 x2 x3 x4;\n"
        "x1 = 3*x3*x1*2 + 1;\nx2 = x1;\nx3 = 1;\nx4 = x4 + 1;\n",
    )
    started = time.monotonic()
    with pytest.warns(RuntimeWarning):
        assert main(["oracle", path, "--dim", "1"]) == 3
    assert time.monotonic() - started < 5.0
    assert capsys.readouterr().out.splitlines()[-1] == "status: budget-exhausted"


def test_oracle_solves_each_dimension_layer_once_for_all_variables(tmp_path, capsys, monkeypatch):
    solved = []
    iterate = grammar._iterate

    def counted(*args, **kwargs):
        solved.append(args)
        return iterate(*args, **kwargs)

    monkeypatch.setattr(grammar, "_iterate", counted)
    path = write(tmp_path, "semiring boolean;\nvars x y z;\nx = y*z + 1;\ny = x;\nz = y*y + x;\n")
    assert main(["oracle", path, "--dim", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["x = 1", "y = 1", "z = 1"]
    assert len(solved) == 2  # dimension layers 0 and 1


def test_oracle_stops_once_its_sums_are_final(tmp_path, capsys, monkeypatch):
    # L_2 == L_1 on this boolean file, so no later layer is solved; solving
    # every layer took about 3 s at --dim 3000
    solved = []
    iterate = grammar._iterate

    def counted(*args, **kwargs):
        solved.append(args)
        if len(solved) > 10:
            raise RuntimeError("the oracle kept solving layers")
        return iterate(*args, **kwargs)

    monkeypatch.setattr(grammar, "_iterate", counted)
    path = write(tmp_path, "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x*x;\n")
    started = time.monotonic()
    assert main(["oracle", path, "--dim", str(10**6)]) == 0
    assert time.monotonic() - started < 1.0
    out = capsys.readouterr().out.splitlines()
    assert out == ["x = 1", "y = 1", "vs iterate: x=1 y=1", "verdict: OK"]
    assert len(solved) == 3  # dimension layers 0, 1 and 2


def test_oracle_memory_does_not_grow_with_the_dimension(tmp_path, capsys, monkeypatch):
    # a layer reads only the layer below and the two sums below it; keeping
    # every layer and sum held about 0.7 KB more per layer of a boolean file.
    # No layer of this file is zero, so the oracle solves all 251 of them.
    held = {}
    iterate = grammar._iterate

    def measured(*args, **kwargs):
        k = len(held)
        held[k] = None
        if k in (50, 250):
            gc.collect()  # also empties the free lists, whose blocks tracemalloc counts
            held[k] = tracemalloc.get_traced_memory()[0]
        return iterate(*args, **kwargs)

    monkeypatch.setattr(grammar, "_iterate", measured)
    path = write(tmp_path, "semiring counting;\nvars x;\nx = x*x + 1;\n")
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning, match="overshoot"):
            assert main(["oracle", path, "--dim", "250", "--json"]) == 0
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["tree_sums"] == {"x": "inf"}
    assert held[250] - held[50] < 20_000  # bytes, at layer 250 against layer 50


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


RELATION5 = """\
semiring relation 2;
vars a b c d e;
a = a*b + [[0,1],[1,0]];
b = c;
c = d*a;
d = [[1,0],[0,0]];
e = e*a;
"""


@pytest.mark.parametrize(
    "text,argv",
    [
        # 16^5 points, over the given budget and over the default one
        (RELATION5, ["--budget", "1000"]),
        (RELATION5, []),
        ("semiring boolean;\nvars x;\nx = x*x + 1;\n", ["--budget", "1"]),
    ],
)
def test_completion_table_counts_points_before_building(tmp_path, capsys, monkeypatch, text, argv):
    import semifix.munchausen

    def refuse(*args):
        raise AssertionError("table instance built before the size check")

    monkeypatch.setattr(semifix.munchausen, "make_function_semiring", refuse)
    path = write(tmp_path, text)
    assert main(["completion", path, "--table", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: a completion table over")


def test_completion_table_within_budget(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "semiring boolean;\nvars x;\nx = x*x + 1;\n")
    assert main(["completion", path, "--table", "--budget", "2"]) == 0
    assert "->" in capsys.readouterr().out
    monkeypatch.setenv("SEMIFIX_BUDGET", "1")
    assert main(["completion", path, "--table"]) == 3


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


B2 = "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x;\n"


def test_grammar_level_text_is_unchanged_within_the_budget(tmp_path, capsys):
    path = write(tmp_path, B2)
    assert main(["grammar", path, "--level", "2"]) == 0
    assert capsys.readouterr().out == (
        "x^1 -> 1 x^1 1 y 1 | 1 x 1 y^1 1 | x\n"
        "y^1 -> 1 x^1 1 | y\n"
        "x^2 -> 1 x^2 1 y^1 1 | 1 x^1 1 y^2 1 | x^1\n"
        "y^2 -> 1 x^2 1 | y^1\n"
        "x^3 -> 1 x^3 1 y^2 1 | 1 x^2 1 y^3 1 | x^2\n"
        "y^3 -> 1 x^3 1 | y^2\n"
        "x^4 -> 1 x^4 1 y^3 1 | 1 x^3 1 y^4 1 | x^3\n"
        "y^4 -> 1 x^4 1 | y^3\n"
    )


def test_grammar_level_counts_rules_before_building(tmp_path, capsys, monkeypatch):
    import time

    import semifix.munchausen

    def refuse(sys, n):
        raise AssertionError("ladder built before the size check")

    path = write(tmp_path, B2)
    with monkeypatch.context() as patched:
        patched.setattr(semifix.munchausen, "munchausen_grammar", refuse)
        started = time.monotonic()
        assert main(["grammar", path, "--level", "40"]) == 3
        assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exhausted: a level 40 ladder in 2 variables has 2*2^40 rules, "
        "more than the rule budget of 65536\n"
    )
    # 2 variables * 2^15 layers is exactly the default budget
    assert main(["grammar", path, "--level", "15"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SEMIFIX_BUDGET", "7")
    assert main(["grammar", path, "--level", "2"]) == 3
    assert "rule budget of 7" in capsys.readouterr().err
    assert main(["grammar", path, "--indexed"]) == 0


def test_non_decimal_digits_in_the_header_are_a_syntax_error(tmp_path, capsys):
    path = write(tmp_path, "semiring relation \u00b2;\nvars x;\nx = [[1,0],[0,1]];\n")
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:1:19: ")
    # an Arabic-Indic three is a decimal digit, so this is relation[3]
    path = write(tmp_path, "semiring relation \u0663;\nvars x;\nx = x;\n", "r3.sfx")
    assert main(["solve", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["semiring"] == "relation[3]"


def test_tensor_companion_solve_out_of_budget_exits_3(tmp_path, capsys, monkeypatch):
    import semifix.solver

    path = write(tmp_path, "semiring relation 2;\nvars x;\nx = x*x + [[0,1],[1,0]];\n")
    monkeypatch.setattr(semifix.solver, "DEFAULT_KLEENE_BUDGET", 1)
    assert main(["tensor", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: companion solve did not stabilize")


def test_tensor_fixed_point_out_of_companion_budget_exits_3(tmp_path, capsys, monkeypatch):
    import semifix.solver

    # small/fixed-relation.sfx: the constants solve the system, but confirming
    # that takes a second round, which a budget of 1 does not allow
    text = (
        "semiring relation 2;\nvars x y z;\nx = x*y + [[1,1],[0,1]];\n"
        "y = [[1,0],[0,0]]*y*x + [[1,1],[0,1]];\nz = z*x;\n"
    )
    path = write(tmp_path, text)
    monkeypatch.setattr(semifix.solver, "DEFAULT_KLEENE_BUDGET", 1)
    assert main(["tensor", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exhausted: companion solve did not stabilize")


def test_tensor_companion_above_the_state_limit_exits_3(tmp_path, capsys):
    identity = json.dumps([[int(i == j) for j in range(16)] for i in range(16)])
    at_limit = write(tmp_path, f"semiring relation 16;\nvars x;\nx = x*x + {identity};\n")
    assert main(["tensor", at_limit, "--level", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: OK"
    path = write(tmp_path, "semiring relation 17;\nvars x;\nx = x;\n", "big.sfx")
    assert main(["tensor", path, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exhausted: the tensor companion of relation[17] has 289 states,"
        " more than MAX_COMPANION_STATES = 256\n"
    )


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


def test_tensor_skips_a_reference_that_exhausts_its_budget(tmp_path, capsys):
    path = write(
        tmp_path,
        "semiring relation 2;\nvars x y;\nx = [[0,1],[1,0]]*y*x + [[1,0],[0,1]];\ny = x;\n",
    )
    assert main(["tensor", path, "--level", "1", "--budget", "1"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: skipped"
    assert main(["tensor", path, "--level", "1", "--budget", "1", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "skipped"
    assert data["reference"] is None


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


def test_counting_literal_above_the_cap_is_a_syntax_error(tmp_path, capsys):
    path = write(tmp_path, "semiring counting;\nvars x;\nx = 4611686018427387905;\n")
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:3:5: not a variable or counting literal: ")
    at_cap = write(tmp_path, "semiring counting;\nvars x;\nx = 4611686018427387904;\n", "c.sfx")
    assert main(["solve", at_cap]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x = 4611686018427387904"


def test_relation_dimension_above_the_limit_is_a_syntax_error(tmp_path, capsys):
    at_limit = write(tmp_path, "semiring relation 64;\nvars x;\nx = x;\n")
    assert main(["solve", at_limit]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("status: stabilized")
    path = write(tmp_path, "semiring relation 65;\nvars x;\nx = x;\n", "big.sfx")
    assert main(["solve", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:1:10: relation dimension 65 is above the limit")


def test_a_header_parameter_longer_than_int_reads_is_a_syntax_error(tmp_path, capsys):
    # int() reads at most 4,300 digits from a string
    path = write(tmp_path, "semiring relation " + "9" * 5000 + ";\nvars x;\nx = x;\n")
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:1:19: semiring parameter of 5000 digits is too long\n"


def test_a_file_that_is_not_utf8_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "latin.sfx"
    path.write_bytes(b"semiring boolean;\nvars x;\nx = 1;\n\xff\n")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: not UTF-8: byte 0xff at offset 33\n"


def test_solve_by_newton(tmp_path, capsys):
    path = write(tmp_path, "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x;\n")
    assert main(["solve", path, "--method", "newton"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "x = 1",
        "y = 1",
        "status: stabilized after 3 steps",
    ]
    assert main(["solve", path, "--method", "newton", "--steps", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "newton"
    assert data["values"] == {"x": "1", "y": "1"}
    assert (data["status"], data["steps"]) == ("stabilized", 1)
    # the first linear solve needs more than one iteration
    assert main(["solve", path, "--method", "newton", "--budget", "1", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["steps"]) == ("budget-exhausted", 0)
    assert data["values"] == {"x": "1", "y": "0"}


def test_newton_chain_steps_are_bounded_by_the_budget(tmp_path, capsys):
    # over counting this chain never reaches a fixed point
    path = write(tmp_path, CHAIN, "chain.sfx")
    with pytest.warns(RuntimeWarning):
        assert main(["solve", path, "--method", "newton", "--steps", "20000", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["steps"]) == ("budget-exhausted", 10000)
    with pytest.warns(RuntimeWarning):
        assert main(["solve", path, "--method", "newton", "--steps", "20", "--budget", "6"]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "status: budget-exhausted after 6 steps"


def test_a_newton_solve_wraps_only_the_sample_it_prints(tmp_path, capsys, monkeypatch):
    # x1 = x2*x2; ...; x6 = 1 changes on five steps, so the chain holds seven samples
    text = "semiring boolean;\nvars x1 x2 x3 x4 x5 x6;\n"
    text += "".join(f"x{i} = x{i + 1}*x{i + 1};\n" for i in range(1, 6)) + "x6 = 1;\n"
    path = write(tmp_path, text)
    vector, wrapped = EquationSystem.vector, []

    def counted(self, payloads):
        wrapped.append(list(payloads))
        return vector(self, payloads)

    monkeypatch.setattr(EquationSystem, "vector", counted)
    assert main(["solve", path, "--method", "newton", "--steps", "8", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["status"], data["steps"]) == ("stabilized", 8)
    assert set(data["values"].values()) == {"1"}
    assert wrapped == [[True] * 6]


def test_a_completion_wraps_only_the_vector_it_prints(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "semiring min-plus;\nvars x y;\nx = 3*y + 7;\ny = x + 2;\n")
    vector, wrapped = EquationSystem.vector, []

    def counted(self, payloads):
        wrapped.append(list(payloads))
        return vector(self, payloads)

    monkeypatch.setattr(EquationSystem, "vector", counted)
    assert main(["completion", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == {"x": "5", "y": "2"}
    assert wrapped == [[5, 2]]


def test_linear_solve_budget_does_not_scale_with_constants(tmp_path, capsys):
    path = write(tmp_path, "semiring counting;\nvars x;\nx = x + 100000;\n")
    assert main(["completion", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "10000 iterations" in captured.err


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


@pytest.mark.parametrize(
    "literal,cell",
    [
        ("[[false,true],[0,1]]", "False"),
        ("[[true,0.0],[0,1e0]]", "True"),
        ("[[1.0,0],[0,1]]", "1.0"),
    ],
)
def test_relation_cells_must_be_json_integers(tmp_path, capsys, literal, cell):
    path = write(tmp_path, f"semiring relation 2;\nvars x;\nx = {literal};\n")
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}:3:5: not a variable or relation[2] literal: "
        f"relation cells must be 0 or 1, got {cell}\n"
    )


@pytest.mark.parametrize("name", ["counting", "min-plus"])
def test_a_superscript_digit_is_not_a_numeric_literal(tmp_path, capsys, name):
    path = write(tmp_path, f"semiring {name};\nvars x;\nx = ²*x + 1;\n")
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}:3:5: not a variable or {name} literal: "
        f"{name} literal must be digits or inf, got '²'\n"
    )
    # an Arabic-Indic three is a decimal digit, so it reads as 3
    path = write(tmp_path, f"semiring {name};\nvars x;\nx = ٣;\n", "three.sfx")
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "x = 3"


# Argument shapes for the direct subcommand dispatch: the error paths,
# help, `--` and abbreviations, and every option of every command.
ARGV_SHAPES = [
    [],
    ["-h"],
    ["--help"],
    ["solve", "-h"],
    ["frobnicate", "f.sfx"],
    ["sol", "f.sfx"],
    ["solve"],
    ["solve", "missing.sfx"],
    ["solve", "f.sfx", "--bogus"],
    ["solve", "f.sfx", "extra"],
    ["solve", "f.sfx", "g.sfx", "h.sfx"],
    ["solve", "f.sfx", "--steps", "x"],
    ["solve", "f.sfx", "--steps", "-1"],
    ["solve", "f.sfx", "--budget", "-1"],
    ["solve", "f.sfx", "--meth", "newton"],
    ["solve", "f.sfx", "--method=newton"],
    ["solve", "f.sfx", "--method", "bogus"],
    ["solve", "f.sfx", "--jso"],
    ["solve", "f.sfx", "--json=1"],
    ["solve", "f.sfx", "--he"],
    ["solve", "f.sfx", "-x"],
    ["solve", "f.sfx", "--"],
    ["solve", "--", "f.sfx"],
    ["solve", "--", "-f.sfx"],
    ["--", "solve", "f.sfx"],
    ["--json", "solve", "f.sfx"],
    ["solve", "--json", "f.sfx", "--json"],
    ["solve", "f.sfx", "--method", "munchausen", "--steps", "4", "--budget", "9", "--json"],
    ["compare", "f.sfx", "--steps", "2", "--budget", "200", "--json"],
    ["oracle", "f.sfx", "--no-complete", "--dim", "1", "--node-budget", "7"],
    ["oracle", "f.sfx", "--complete"],
    ["completion", "f.sfx"],
    ["completion", "f.sfx", "--grammar", "--table"],
    ["completion", "f.sfx", "--left-linear", "--json"],
    ["completion", "f.sfx", "--table", "--budget", "3"],
    ["grammar", "f.sfx", "--level", "2", "--indexed"],
    ["tensor", "f.sfx", "--level", "0", "--budget", "5", "--json"],
    ["tensor", "f.sfx", "--steps", "1"],
    ["solve", "-1"],
    ["solve", "f.sfx", "--steps", "٣"],
    ["solve", "f.sfx", "--steps", " 2"],
    ["solve", "", "--json"],
    ["solve", "f.sfx", "--method", ""],
    ["solve", "f.sfx", "--json", "--steps"],
    ["solve", "f.sfx", "--steps", "2", "--steps", "3"],
    ["solve", "compare"],
    ["oracle", "f.sfx", "--no-complete"],
    ["completion", "f.sfx", "--grammar", "--left-linear"],
]


def _parse_outcome(parse_argv, argv, capsys):
    try:
        result = ("parsed", parse_argv(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("argv", ARGV_SHAPES, ids=lambda argv: " ".join(argv) or "<none>")
def test_direct_dispatch_matches_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert _parse_outcome(cli._parse_argv, argv, capsys) == want


def test_direct_dispatch_skips_the_top_level_parser(tmp_path, monkeypatch):
    # every argv shape the benchmark issues, on a few systems of each workload
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    corpus = importlib.import_module("corpus")
    bench_argv = [
        cmd.argv
        for workload in corpus.WORKLOADS
        for cmd in corpus.build(workload, 1, 6, tmp_path / workload)
    ]
    want = [vars(cli.build_parser().parse_args(argv)) for argv in bench_argv]
    cli.build_parser.cache_clear()
    args = cli._parse_argv(["compare", "f.sfx", "--steps", "2", "--budget", "200", "--json"])
    want_compare = {"command": "compare", "file": "f.sfx", "json": True, "steps": 2, "budget": 200}
    assert vars(args) == want_compare
    shapes = {(argv[0], *argv[2:]) for argv in bench_argv}
    assert len(shapes) == 7  # two on each scalar workload, three on accel-relation
    assert [vars(cli._parse_argv(argv)) for argv in bench_argv] == want
    assert cli.build_parser.cache_info().misses == 0  # no parser was built


# The argv the direct reader is checked on: a subcommand name, a file,
# and more files, values and options in exact, abbreviated and "=" forms,
# the options mostly the subcommand's own: help and every spelling of the
# options that `cli._COMMANDS` declares.
def _spellings(options):
    for option, kind, _, _ in (cli._JSON, *options):
        yield option
        if kind == cli._NEGATABLE:
            yield "--no-" + option[2:]


READER_OPTIONS = {
    name: sorted({"-h", "--help", *_spellings(options)})
    for name, (_, *options) in cli._COMMANDS.items()
}
READER_EVERY_OPTION = sorted({s for options in READER_OPTIONS.values() for s in options})
READER_VALUES = ["0", "3", "-1", "x", "newton", "", "kleene", "٣", " 2"]
READER_FILES = ["g.sfx", "-f", "--"]


@st.composite
def reader_argv(draw):
    command = draw(st.sampled_from(sorted(READER_OPTIONS)))
    option = st.sampled_from(READER_OPTIONS[command])
    value = st.sampled_from(READER_VALUES)
    groups = st.one_of(
        st.tuples(option),
        st.tuples(option, value),
        st.tuples(st.builds(lambda o, n: o[:n], option, st.integers(3, 12))),
        st.tuples(st.builds("{}={}".format, option, value)),
        st.tuples(st.sampled_from(READER_EVERY_OPTION)),
        st.tuples(value),
        st.tuples(st.sampled_from(READER_FILES)),
    )
    words = [word for group in draw(st.lists(groups, max_size=3)) for word in group]
    words.insert(draw(st.integers(0, len(words))), "f.sfx")
    return [command, *words]


@settings(max_examples=500, deadline=None)
@given(reader_argv())
def test_direct_reader_reads_an_argv_as_the_full_parser_does_or_not_at_all(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            want = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            want = None
    got = cli._read_argv(argv)
    if want is None:
        assert got is None
    elif got is not None:
        assert vars(got) == want


JSON_SYSTEMS = {
    "counting": "semiring counting;\nvars x y z;\nx = y*y + 1;\ny = z;\nz = 2*z + 1;\n",
    "boolean": "semiring boolean;\nvars x y;\nx = x*y + 1;\ny = x*x;\n",
    "relation": (
        "semiring relation 2;\nvars x y;\n"
        "x = [[0,1],[0,0]]*y*x + [[1,0],[0,0]];\ny = x + [[0,0],[0,1]];\n"
    ),
    "non-ascii": "semiring min-plus;\nvars xé y;\nxé = 3*y + 7;\ny = xé*xé + 2;\n",
}
JSON_COMMANDS = [
    ("counting", ["solve"]),
    ("counting", ["solve", "--method", "newton", "--steps", "2"]),
    ("non-ascii", ["solve", "--method", "munchausen", "--steps", "2"]),
    ("counting", ["compare"]),
    ("boolean", ["oracle", "--dim", "1"]),
    ("counting", ["completion"]),
    ("boolean", ["completion", "--grammar"]),
    ("boolean", ["completion", "--left-linear"]),
    ("boolean", ["completion", "--table"]),
    ("non-ascii", ["grammar", "--level", "2"]),
    ("relation", ["grammar", "--indexed"]),
    ("relation", ["tensor", "--level", "1"]),
]


@pytest.mark.parametrize(
    "system,argv", JSON_COMMANDS, ids=lambda a: " ".join(a) if isinstance(a, list) else a
)
def test_json_writer_matches_json_dumps_on_every_command(system, argv, tmp_path, capsys):
    path = tmp_path / "s.sfx"
    path.write_text(JSON_SYSTEMS[system], encoding="utf-8")
    main([argv[0], str(path), *argv[1:], "--json"])
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    assert printed == json.dumps(payload, indent=2) + "\n"
    assert cli._json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [{}], "d": [[]]},
        [[[1, [2, {}]]], {"k": {"l": {"m": None}}}],
        None,
        True,
        False,
        0,
        -7,
        10**30,
        2.5,
        "",
        "café   \U0001f600",
        "\x00\x01\x1f\x7f\t\n\r\b\f",
        'quote " and backslash \\ and slash /',
        {"é\"\\\n": ["é", "\\", '"']},
        {"t": (1, (2, 3)), "bools": [True, False, None], "n": [0, -1, 3]},
    ],
    ids=repr,
)
def test_json_writer_matches_json_dumps_on_synthetic_payloads(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


def test_a_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # 4 variables and 4*2^8 rules: about 1.4 MB of JSON, far beyond a pipe's buffer
    path = tmp_path / "big.sfx"
    rotate, constant = "[[0,1,0],[0,0,1],[1,0,0]]", "[[1,0,0],[0,0,0],[0,0,1]]"
    equations = "".join(
        f"x{i} = {rotate}*x{i % 4 + 1}*x{(i + 1) % 4 + 1} + {constant};\n" for i in range(1, 5)
    )
    path.write_text("semiring relation 3;\nvars x1 x2 x3 x4;\n" + equations, encoding="utf-8")
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "semifix.cli", "grammar", str(path), "--level", "8", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# An int beyond float range next to inf: math.inf + 10**400 raises OverflowError.
MIN_PLUS_BEYOND_FLOAT = "semiring min-plus;\nvars x;\nx = inf*1" + "0" * 400 + " + 2;\n"


@pytest.mark.parametrize("argv", [["solve"], ["compare"], ["completion"]], ids=" ".join)
def test_min_plus_infinity_absorbs_a_literal_beyond_float_range(tmp_path, capsys, argv):
    path = write(tmp_path, MIN_PLUS_BEYOND_FLOAT)
    assert main([argv[0], path, *argv[1:], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    if argv == ["compare"]:
        assert {r["status"] for r in payload["results"].values()} == {"stabilized"}
        assert {r["values"]["x"] for r in payload["results"].values()} == {"2"}
        assert {v["verdict"] for v in payload["verdicts"]} == {"OK"}
    else:
        assert payload["values"] == {"x": "2"}
        assert payload.get("status", "stabilized") == "stabilized"


def test_oracle_layer_costs_beyond_float_range_add_to_infinity(tmp_path, capsys):
    # the cheapest tree of exact dimension k costs about 2^k, and the layer
    # solve of dimension 1024 adds it to inf
    path = write(tmp_path, "semiring min-plus;\nvars x y;\nx = x*y + 3;\ny = x*x + 1;\n")
    assert main(["oracle", path, "--dim", "1024", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tree_sums"] == payload["iterate"] == {"x": "3", "y": "1"}
    assert payload["verdict"] == "OK"


# Literals per instance, with the edges of each: inf, the counting cap and
# a min-plus cost beyond float range.
CRASH_LITERALS = {
    "boolean": ("0", "1"),
    "min-plus": ("0", "3", "inf", "1" + "0" * 400),
    "counting": ("0", "1", "2", "inf", str(2**62)),
    "relation 2": ("[[0,0],[0,0]]", "[[1,0],[0,1]]", "[[0,1],[1,0]]", "[[1,1],[0,1]]"),
}
# Every subcommand and mode, at small dimensions, levels and budgets.
CRASH_COMMANDS = (
    ["solve", "--budget", "20"],
    ["solve", "--method", "newton", "--steps", "2", "--budget", "20"],
    ["solve", "--method", "munchausen", "--steps", "2", "--budget", "20"],
    ["compare", "--steps", "1", "--budget", "20"],
    ["oracle", "--dim", "1", "--node-budget", "20"],
    ["oracle", "--dim", "1", "--no-complete", "--node-budget", "20"],
    ["completion", "--budget", "20"],
    ["completion", "--grammar"],
    ["completion", "--left-linear"],
    ["completion", "--table", "--budget", "64"],
    ["grammar", "--level", "2"],
    ["grammar", "--indexed"],
    ["tensor", "--level", "1", "--budget", "20"],
)


@st.composite
def system_texts(draw):
    instance = draw(st.sampled_from(sorted(CRASH_LITERALS)))
    variables = ["x", "y", "z"][: draw(st.integers(1, 3))]
    factor = st.sampled_from(variables) | st.sampled_from(CRASH_LITERALS[instance])
    product = st.lists(factor, min_size=1, max_size=3).map("*".join)
    equations = "".join(
        f"{x} = {' + '.join(draw(st.lists(product, min_size=1, max_size=3)))};\n"
        for x in variables
    )
    return f"semiring {instance};\nvars {' '.join(variables)};\n{equations}"


def _json_exhausted(payload: dict) -> bool:
    """Whether a --json payload reports a budget that ran out, by the command's own field.

    `compare` is the exception README names: it reports a status for each
    method in `results` and exits 0 whether or not a budget ran out.
    """
    if payload.get("command") == "compare":
        statuses = {result["status"] for result in payload["results"].values()}
        assert statuses <= {"stabilized", "budget-exhausted"}
        return False
    status = payload.get("status", "stabilized")
    assert status in ("stabilized", "budget-exhausted")
    return (
        status == "budget-exhausted"
        or payload.get("stabilized") is False
        or ("reference" in payload and payload["reference"] is None)
    )


@pytest.mark.filterwarnings("ignore:newton iteration over non-idempotent")
@settings(max_examples=100, deadline=None)
@given(system_texts())
def test_every_command_exits_with_a_documented_code_on_generated_systems(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.sfx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in CRASH_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], path, *argv[1:], "--json"])
            # a well-formed file is never malformed input nor an internal fault
            assert code in (0, 1, 3), (argv, text)
            if out.getvalue():
                assert code == (3 if _json_exhausted(json.loads(out.getvalue())) else 0), argv
            else:
                assert code != 0, argv

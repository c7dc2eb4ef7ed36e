"""Seeded corpora of .sfx files and the commands run over them.

Each workload is built from its seed alone: the same seed gives the same
systems, byte-identical files and the same command list.  Systems are
generated as raw descriptions (see ``reference.py``), rendered to text by
the package's own ``render``, and paired with the outputs the reference
evaluator expects, computed once here and never by the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

# Wider than the six names of the test generators, so systems reach 16
# variables.  No name collides with a literal keyword such as ``inf``.
VAR_NAMES = tuple(f"x{i}" for i in range(1, 17))

# The counting example from the README; its least solution is x=4 y=2 z=2.
README_CHAIN = "semiring counting;\nvars x y z;\nx = y*y;\ny = z;\nz = 2;\n"
README_CHAIN_RAW = (
    "counting",
    None,
    ("x", "y", "z"),
    {"x": [["y", "y"]], "y": [["z"]], "z": [[2]]},
)

# Iteration budget of the counting workload, for Kleene, linear solves
# and word expansion alike.
COUNTING_BUDGET = 200
KLEENE_DEFAULT_BUDGET = 10_000  # the CLI's default for plain iteration


@dataclass
class Command:
    """One CLI invocation and what its JSON output must satisfy."""

    argv: list[str]
    file: str
    check: str  # name of the check in run.py
    expect: dict = field(default_factory=dict)


def random_payload(kind: str, q: int | None, rng: random.Random):
    """One element, biased toward small payloads as in the test generators."""
    if kind == "boolean":
        return rng.random() < 0.6
    if kind == "min-plus":
        return rng.randrange(0, 10)
    if kind == "counting":
        return rng.randrange(0, 4)
    return tuple(
        sum(1 << j for j in range(q) if rng.random() < 0.5) for _ in range(q)
    )


def random_monomial(kind, q, rng, variables, max_occurrences=2, unit_bias=0.6):
    """Interleaved factors with one or more variable occurrences."""
    factors = []
    for _ in range(rng.randint(1, max_occurrences)):
        if rng.random() > unit_bias:
            factors.append(random_payload(kind, q, rng))
        factors.append(rng.choice(variables))
    if rng.random() > unit_bias:
        factors.append(random_payload(kind, q, rng))
    return factors


def random_system(kind, q, rng, n_vars, max_monomials=3, zero_const_bias=0.4):
    """Cyclic in general: any variable may mention any other."""
    variables = VAR_NAMES[:n_vars]
    equations = {}
    for x in variables:
        monos = [
            random_monomial(kind, q, rng, variables)
            for _ in range(rng.randint(0, max_monomials))
        ]
        if rng.random() > zero_const_bias:
            monos.append([random_payload(kind, q, rng)])
        equations[x] = monos
    return (kind, q, variables, equations)


def random_triangular_system(kind, q, rng, n_vars, max_monomials=2):
    """Acyclic: each variable part mentions only strictly later variables."""
    variables = VAR_NAMES[:n_vars]
    equations = {}
    for i, x in enumerate(variables):
        later = variables[i + 1 :]
        monos = []
        if later:
            for _ in range(rng.randint(0, max_monomials)):
                monos.append(random_monomial(kind, q, rng, later))
        monos.append([random_payload(kind, q, rng)])
        equations[x] = monos
    return (kind, q, variables, equations)


def _instance(kind, q):
    from semifix.semiring import BOOLEAN, COUNTING, MIN_PLUS, relation_semiring

    return {"boolean": BOOLEAN, "min-plus": MIN_PLUS, "counting": COUNTING}.get(
        kind
    ) or relation_semiring(q)


def _value(sr, kind, payload):
    if kind == "relation":
        q = len(payload)
        return sr.value([[bool((row >> j) & 1) for j in range(q)] for row in payload])
    return sr.value(payload)


def render_raw(raw) -> str:
    """The system's text, written by the package's canonical renderer."""
    from semifix.cli import render
    from semifix.polynomial import equation_system, monomial, polynomial

    kind, q, variables, equations = raw
    sr = _instance(kind, q)
    rhs = {
        x: polynomial(
            sr,
            [
                monomial(sr, [f if isinstance(f, str) else _value(sr, kind, f) for f in m])
                for m in equations[x]
            ],
        )
        for x in variables
    }
    return render(equation_system(sr, variables, rhs))


def _kleene_expect(raw, ops, budget):
    v, stable, steps = ref.kleene(raw, ops, budget)
    return {
        "values": ref.rendered(ops, v),
        "status": "stabilized" if stable else "budget-exhausted",
        "steps": steps,
    }


def accel_relation(rng: random.Random, n_systems: int):
    """Relation systems for Newton, the doubling ladder and the tensor path."""
    out = []
    for i in range(n_systems):
        q = (2, 3, 4)[i % 3]
        n = 4 + (i // 3) % 5
        raw = random_system("relation", q, rng, n)
        ops = ref.ops_of(raw)
        powers = ref.completion_powers(raw, ops, 16)
        cmds = [
            (["solve", "--method", "newton", "--steps", "8"], "iterate", {"values": ref.rendered(ops, powers[8])}),
            (["solve", "--method", "munchausen", "--steps", "4"], "iterate", {"values": ref.rendered(ops, powers[16])}),
        ]
        if q <= 3 and n <= 5:
            cmds.append((["tensor", "--level", "2"], "tensor", {"values": ref.rendered(ops, powers[4])}))
        out.append((raw, cmds))
    return out


def kleene_scalar(rng: random.Random, n_systems: int):
    """Boolean and min-plus systems for plain iteration and one completion."""
    out = []
    for i in range(n_systems):
        kind = ("boolean", "min-plus")[i % 2]
        n = 8 + (i // 2) % 9
        raw = random_system(kind, None, rng, n)
        ops = ref.ops_of(raw)
        cmds = [
            (["solve"], "kleene", _kleene_expect(raw, ops, KLEENE_DEFAULT_BUDGET)),
            (
                ["completion"],
                "values",
                {"values": ref.rendered(ops, ref.completion(raw, ops, ref.constants(raw, ops)))},
            ),
        ]
        out.append((raw, cmds))
    return out


def counting_words(rng: random.Random, n_systems: int):
    """Counting systems, half cyclic and half acyclic, plus the README chain."""
    budget = str(COUNTING_BUDGET)
    systems = [README_CHAIN_RAW]
    for i in range(n_systems - 1):
        n = 3 + (i // 2) % 4
        if i % 2:
            systems.append(random_triangular_system("counting", None, rng, n))
        else:
            systems.append(random_system("counting", None, rng, n))
    out = []
    for raw in systems:
        ops = ref.ops_of(raw)
        kleene = _kleene_expect(raw, ops, COUNTING_BUDGET)
        cmds = [
            (["solve", "--budget", budget], "kleene", kleene),
            (["compare", "--steps", "2", "--budget", budget], "compare", {"kleene": kleene}),
        ]
        out.append((raw, cmds))
    return out


WORKLOADS = {
    "accel-relation": accel_relation,
    "kleene-scalar": kleene_scalar,
    "counting-words": counting_words,
}


def build(workload: str, seed: int, n_systems: int, directory: Path) -> list[Command]:
    """Write the workload's files into directory and list its commands.

    Commands follow system order, and systems cycle through the
    workload's shapes, so any long prefix of the list holds a similar mix.
    """
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    commands = []
    for idx, (raw, cmds) in enumerate(WORKLOADS[workload](rng, n_systems)):
        path = directory / f"{idx:04d}.sfx"
        text = README_CHAIN if raw is README_CHAIN_RAW else render_raw(raw)
        path.write_text(text, encoding="utf-8")
        commands.extend(
            Command([argv[0], str(path), *argv[1:], "--json"], path.name, check, expect)
            for argv, check, expect in cmds
        )
    return commands

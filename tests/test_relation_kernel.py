"""The bit-row relation kernel against the nested-tuple form it replaced.

The oracle below computes on q x q tuples of bools, cell by cell, as the
relation instance once did.  Every packed result must be the packed form
of the oracle's result: exhaustively for q = 1, 2, on seeded samples for
larger q, among them q = 8, the widest one-byte rows, and q = 16, the
narrowest two-byte rows and the largest tensor companion's base.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import semifix
from semifix.semiring import Value, relation_semiring
from semifix.tensor import relation_admissible


def n_add(x, y):
    q = len(x)
    return tuple(tuple(x[i][j] or y[i][j] for j in range(q)) for i in range(q))


def n_mul(x, y):
    q = len(x)
    return tuple(
        tuple(any(x[i][k] and y[k][j] for k in range(q)) for j in range(q)) for i in range(q)
    )


def n_star(x):
    q = len(x)
    closure = [[i == j or x[i][j] for j in range(q)] for i in range(q)]
    for k in range(q):
        for i in range(q):
            if closure[i][k]:
                for j in range(q):
                    if closure[k][j]:
                        closure[i][j] = True
    return tuple(tuple(row) for row in closure)


def n_leq(x, y):
    q = len(x)
    return all((not x[i][j]) or y[i][j] for i in range(q) for j in range(q))


def n_elements(q):
    for bits in itertools.product((False, True), repeat=q * q):
        yield tuple(bits[i * q : (i + 1) * q] for i in range(q))


def n_render(x):
    return json.dumps([[1 if c else 0 for c in row] for row in x], separators=(",", ":"))


def n_transpose(x):
    q = len(x)
    return tuple(tuple(x[j][i] for j in range(q)) for i in range(q))


def n_tensor_prod(x, y):
    q = len(x)
    return tuple(
        tuple(x[i1][j1] and y[i2][j2] for j1 in range(q) for j2 in range(q))
        for i1 in range(q)
        for i2 in range(q)
    )


def n_readout(t, q):
    return tuple(
        tuple(any(t[k * q + k][i * q + j] for k in range(q)) for j in range(q)) for i in range(q)
    )


def n_random(q, rng):
    return tuple(tuple(rng.random() < 0.4 for _ in range(q)) for _ in range(q))


def _check_pair(q, x, y):
    sr = relation_semiring(q)
    px, py = sr.value(x).payload, sr.value(y).payload
    assert sr._add(px, py) == sr.value(n_add(x, y)).payload
    assert sr._mul(px, py) == sr.value(n_mul(x, y)).payload
    assert sr._leq(px, py) == n_leq(x, y)


def _check_one(q, x):
    sr = relation_semiring(q)
    v = sr.value(x)
    assert sr._star(v.payload) == sr.value(n_star(x)).payload
    assert sr.render(v) == n_render(x)
    assert Value(sr, sr._parse(n_render(x))) == v


def _check_admissible(q, x, y):
    ops = relation_admissible(q)
    vx, vy = ops.base.value(x), ops.base.value(y)
    assert ops.transpose(vx) == ops.base.value(n_transpose(x))
    t = ops.tensor_prod(vx, vy)
    assert t == ops.tensor.value(n_tensor_prod(x, y))
    assert ops.readout(t) == ops.base.value(n_readout(n_tensor_prod(x, y), q))


@pytest.mark.parametrize("q", [1, 2])
def test_packed_kernel_matches_nested_exhaustively(q):
    sr = relation_semiring(q)
    elems = list(n_elements(q))
    assert list(sr._elements()) == [sr.value(e).payload for e in elems]
    assert [sr.render(v) for v in sr.elements()] == [n_render(e) for e in elems]
    assert sr.zero() == sr.value(elems[0])
    assert sr.one() == sr.value(tuple(tuple(i == j for j in range(q)) for i in range(q)))
    for x in elems:
        _check_one(q, x)
        for y in elems:
            _check_pair(q, x, y)
            _check_admissible(q, x, y)


@pytest.mark.parametrize("q", [3, 4, 8, 9, 16])
def test_packed_kernel_matches_nested_on_samples(q):
    rng = random.Random(q)
    for _ in range(60 if q < 9 else 15):
        x, y = n_random(q, rng), n_random(q, rng)
        _check_one(q, x)
        _check_pair(q, x, y)
        _check_admissible(q, x, y)
        # readout of a companion value that is no pure tensor
        ops = relation_admissible(q)
        t = n_random(q * q, rng)
        assert ops.readout(ops.tensor.value(t)) == ops.base.value(n_readout(t, q))


def test_elements_order_for_three_states():
    sr = relation_semiring(3)
    assert list(sr._elements()) == [sr.value(e).payload for e in n_elements(3)]


def test_check_takes_nested_and_packed_rows():
    sr = relation_semiring(2)
    nested = sr.value([[0, 1], [1, 1]])
    assert sr.value((0b10, 0b11)) == nested
    assert sr.value([(False, True), 3]) == nested
    assert sr.value([[True, 0], [False, 1]]) == sr.one()
    for bad in [(4, 0), (-1, 0), (True, False), (1,), (1, 2, 3), [[0, 1], [1]], [[0, 1, 0], [1, 1, 0]]]:
        with pytest.raises(ValueError):
            sr.value(bad)


@pytest.mark.parametrize(
    "rows, cell",
    [
        (["01", "10"], "'0'"),
        ([["0", "1"], ["1", "0"]], "'0'"),
        ([[2, 0], [0, 1]], "2"),
        ([[0.5, 0], [0, None]], "0.5"),
        ([[0, 1], [1, None]], "None"),
        ([[1.0, 0], [0, 1]], "1.0"),
    ],
)
def test_check_takes_only_bits_as_cells(rows, cell):
    # bool("0") is true: reading cells by truth made ["01", "10"] the full relation
    with pytest.raises(ValueError, match=rf"^relation cells must be 0 or 1, got {cell}$"):
        relation_semiring(2).value(rows)


ROW_ERROR = "relation row must be a bitmask or a list of cells"


@pytest.mark.parametrize(
    "rows, error",
    [
        ([{0, 1}, {0, 1}], ROW_ERROR),  # the column sets of the full relation
        ([{0: 1, 1: 0}, {0: 0, 1: 0}], ROW_ERROR),  # cells keyed by column
        ([(c for c in (0, 1)), [1, 0]], ROW_ERROR),
        ({0b01, 0b10}, "relation payload must be a 2x2 matrix"),
    ],
    ids=["set", "dict", "generator", "set-of-rows"],
)
def test_check_takes_rows_only_in_order(rows, error):
    # read in iteration order, the set and dict rows gave [[0,1],[0,1]]
    with pytest.raises(ValueError, match=f"^{error}"):
        relation_semiring(2).value(rows)


def _json_render(q, payload):
    return json.dumps([[row >> j & 1 for j in range(q)] for row in payload], separators=(",", ":"))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_render_is_the_compact_json_text_exhaustively(q):
    sr = relation_semiring(q)
    for payload in sr._elements():
        assert sr._render(payload) == _json_render(q, payload)


@pytest.mark.parametrize("q", [4, 8, 64])
def test_render_is_the_compact_json_text_on_samples(q):
    sr = relation_semiring(q)
    rng = random.Random(q)
    full = (1 << q) - 1
    samples = [sr._zero(), sr._one(), (full,) * q]
    samples += [tuple(rng.getrandbits(q) for _ in range(q)) for _ in range(40)]
    for payload in samples:
        assert sr._render(payload) == _json_render(q, payload)


def json_parse(q, text):
    """The JSON reader every relation literal went through before the row tables."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"relation literal must look like [[0,1],[1,0]]: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValueError("relation literal must be a list of rows")
    for row in raw:
        for cell in row:
            if type(cell) is not int or cell not in (0, 1):
                raise ValueError(f"relation cells must be 0 or 1, got {cell!r}")
    if len(raw) != q or any(len(row) != q for row in raw):
        raise ValueError(f"relation payload must be a {q}x{q} matrix")
    return tuple(sum(1 << j for j, cell in enumerate(row) if cell) for row in raw)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _edits(text, alphabet):
    """Every text one character away from text: insertions, deletions, substitutions."""
    for i in range(len(text) + 1):
        for ch in alphabet:
            yield text[:i] + ch + text[i:]
    for i in range(len(text)):
        yield text[:i] + text[i + 1 :]
        for ch in alphabet:
            yield text[:i] + ch + text[i + 1 :]


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_parse_reads_as_json_on_compact_literals_and_their_edits(q):
    sr = relation_semiring(q)
    rng = random.Random(100 + q)
    payloads = [sr._zero(), sr._one()] + [tuple(rng.getrandbits(q) for _ in range(q)) for _ in range(6)]
    hits = 0
    for payload in payloads:
        literal = sr._render(payload)
        assert sr._parse(literal) == json_parse(q, literal) == payload
        for text in _edits(literal, "[],01 2-.et"):
            got = _outcome(sr._parse, text)
            assert got == _outcome(lambda t: json_parse(q, t), text), text
            hits += isinstance(got, tuple) and got[0] != "ValueError"
    assert hits > 0  # some edits still spell a payload, such as a flipped cell


def test_importing_the_cli_builds_no_relation_instance():
    code = (
        "import semifix.cli\n"
        "from semifix.semiring import relation_semiring\n"
        "print(relation_semiring.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(semifix.__file__).resolve().parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert out.stdout == "0\n"

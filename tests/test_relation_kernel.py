"""The bit-row relation kernel against the nested-tuple form it replaced.

The oracle below computes on q x q tuples of bools, cell by cell, as the
relation instance once did.  Every packed result must be the packed form
of the oracle's result: exhaustively for q = 1, 2, on seeded samples for
larger q.
"""

import itertools
import json
import random

import pytest

from semifix.semiring import relation_semiring
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
    assert sr.parse_literal(n_render(x)) == v


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


@pytest.mark.parametrize("q", [3, 4, 9])
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
    for bad in [(4, 0), (-1, 0), (True, False), (1,), (1, 2, 3), [[0, 1], [1]], [[0, 1, 0], [1, 1, 0]]]:
        with pytest.raises(ValueError):
            sr.value(bad)


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

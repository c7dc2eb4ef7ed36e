"""Law checks and behaviour tests for the concrete semiring instances."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gen import table_at
from semifix.semiring import (
    BOOLEAN,
    COUNTING,
    COUNTING_CAP,
    INF,
    MIN_PLUS,
    InstanceMismatchError,
    NotFiniteError,
    Value,
    add,
    add_all,
    instance_by_name,
    make_function_semiring,
    mul,
    nat_leq,
    relation_semiring,
    star,
    vector_eq,
    vector_leq,
)

REL2 = relation_semiring(2)
FUN2 = make_function_semiring(BOOLEAN, ("x", "y"))

extended_nats = st.integers(min_value=0, max_value=10**6) | st.just(INF)


def _literal(sr, text):
    return Value(sr, sr._parse(text))


def _mp(p):
    return MIN_PLUS.value(p)


def _ct(p):
    return COUNTING.value(p)


def check_laws(sr, triples):
    """Ring-like laws plus star unfolding on a batch of value triples."""
    zero, one = sr.zero(), sr.one()
    for a, b, c in triples:
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert add(a, zero) == a
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, one) == a and mul(one, a) == a
        assert mul(a, zero) == zero and mul(zero, a) == zero
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        if sr.is_idempotent:
            assert add(a, a) == a
        if sr.is_commutative:
            assert mul(a, b) == mul(b, a)
        assert star(a) == add(one, mul(a, star(a)))
        assert star(a) == add(one, mul(star(a), a))
        assert nat_leq(a, add(a, b))
        if sr.is_idempotent:
            assert nat_leq(a, b) == (add(a, b) == b)


def exhaustive_triples(sr):
    return itertools.product(sr.elements(), repeat=3)


def test_boolean_laws_exhaustive():
    check_laws(BOOLEAN, exhaustive_triples(BOOLEAN))


def test_relation2_laws_exhaustive():
    check_laws(REL2, exhaustive_triples(REL2))


def test_function_over_boolean_laws_exhaustive():
    check_laws(FUN2, exhaustive_triples(FUN2))


def test_min_plus_laws_random():
    rng = random.Random(7)
    pool = [_mp(rng.randrange(0, 50)) for _ in range(40)] + [_mp(INF), _mp(0)]
    triples = [tuple(rng.choices(pool, k=3)) for _ in range(1500)]
    check_laws(MIN_PLUS, triples)


def test_counting_laws_random():
    rng = random.Random(11)
    pool = [_ct(rng.randrange(0, 50)) for _ in range(40)] + [_ct(INF), _ct(0), _ct(1)]
    triples = [tuple(rng.choices(pool, k=3)) for _ in range(1500)]
    check_laws(COUNTING, triples)


def test_relation3_laws_random():
    rel3 = relation_semiring(3)
    rng = random.Random(13)

    def rand_rel():
        return rel3.value([[rng.random() < 0.4 for _ in range(3)] for _ in range(3)])

    triples = [(rand_rel(), rand_rel(), rand_rel()) for _ in range(400)]
    check_laws(rel3, triples)


def test_counting_is_not_idempotent():
    assert add(_ct(1), _ct(1)) == _ct(2)
    assert not COUNTING.is_idempotent


def test_counting_zero_annihilates_infinity():
    assert mul(_ct(0), _ct(INF)) == _ct(0)
    assert mul(_ct(INF), _ct(0)) == _ct(0)


def test_counting_star_values():
    assert star(_ct(0)) == _ct(1)
    assert star(_ct(1)) == _ct(INF)
    assert star(_ct(5)) == _ct(INF)
    assert star(_ct(INF)) == _ct(INF)


def test_counting_saturates_at_cap():
    big = _ct(COUNTING_CAP)
    assert mul(big, _ct(2)) == _ct(INF)
    assert add(big, big) == _ct(INF)
    assert COUNTING.value(COUNTING_CAP + 1) == _ct(INF)


def guarded_add(x, y):
    """Reference `CountingSemiring._add`: infinity guarded, then the sum capped."""
    if x == INF or y == INF:
        return INF
    return INF if x + y > COUNTING_CAP else x + y


def guarded_mul(x, y):
    """Reference `CountingSemiring._mul`: zero and infinity guarded, then the product capped."""
    if x == 0 or y == 0:
        return 0
    if x == INF or y == INF:
        return INF
    return INF if x * y > COUNTING_CAP else x * y


def test_counting_ops_equal_the_guarded_definitions(monkeypatch):
    capped = []

    def cap(n):
        capped.append(n)
        return INF if n > COUNTING_CAP else n

    monkeypatch.setattr(COUNTING, "_cap", cap)
    edges = (0, 1, 2, 3, 2**31, 2**61, COUNTING_CAP - 1, COUNTING_CAP, INF)
    # sums and products on either side of the cap
    crossing = [(2**31, 2**31), (2**31, 2**31 + 1), (2**61, 2), (2**61 + 1, 2), (3, 2**61)]
    crossing += [(2**61, 2**61), (2**61, 2**61 + 1), (COUNTING_CAP - 1, 1), (COUNTING_CAP - 1, 2)]
    pairs = list(itertools.product(edges, repeat=2)) + crossing
    pairs += [(y, x) for x, y in crossing]
    for x, y in pairs:
        for op, reference, native in (
            (COUNTING._add, guarded_add, x + y),
            (COUNTING._mul, guarded_mul, x * y if x and y else 0),
        ):
            capped.clear()
            got, want = op(x, y), reference(x, y)
            assert got == want and type(got) is type(want)
            assert want is not INF or got is INF
            # the cap is consulted only for a result past it
            assert capped == ([] if native <= COUNTING_CAP else [native])


def test_min_plus_order_reverses_numbers():
    mp = MIN_PLUS
    assert nat_leq(_mp(INF), _mp(3))
    assert nat_leq(_mp(3), _mp(0))
    assert not nat_leq(_mp(0), _mp(3))
    assert mp.zero() == _mp(INF)
    assert mp.one() == _mp(0)


def test_min_plus_star_is_always_zero_cost():
    for p in (0, 1, 17, INF):
        assert star(_mp(p)) == _mp(0)


@given(extended_nats, extended_nats)
def test_min_plus_add_is_min(x, y):
    assert add(_mp(x), _mp(y)).payload == min(x, y)


def test_min_plus_infinity_absorbs_ints_beyond_float_range():
    # math.inf + 10**400 raises OverflowError; the product is still infinite
    huge = 10**400
    assert mul(_mp(INF), _mp(huge)) == _mp(INF)
    assert mul(_mp(huge), _mp(INF)) == _mp(INF)
    assert mul(_mp(huge), _mp(huge)).payload == 2 * huge


@given(extended_nats, extended_nats)
def test_counting_order_is_numeric(x, y):
    a, b = _ct(x), _ct(y)
    assert nat_leq(a, b) == (a.payload <= b.payload)


def relation_star_oracle(sr, m):
    """Least fixed point of C = I + M * C, computed by plain iteration."""
    current = sr.zero()
    while True:
        step = add(sr.one(), mul(m, current))
        if step == current:
            return current
        current = step


def test_relation_star_matches_iteration_oracle_exhaustive():
    for m in REL2.elements():
        assert star(m) == relation_star_oracle(REL2, m)


def test_relation_star_matches_iteration_oracle_random_q3():
    rel3 = relation_semiring(3)
    rng = random.Random(3)
    for _ in range(200):
        m = rel3.value([[rng.random() < 0.4 for _ in range(3)] for _ in range(3)])
        assert star(m) == relation_star_oracle(rel3, m)


def test_relation_commutativity_flag():
    assert relation_semiring(1).is_commutative
    assert not REL2.is_commutative


def test_relation_instances_are_shared_by_dimension():
    assert relation_semiring(2) is REL2
    a = REL2.value([[0, 1], [0, 0]])
    b = relation_semiring(2).value([[0, 0], [1, 0]])
    assert mul(a, b) == REL2.value([[1, 0], [0, 0]])


def test_mixing_instances_fails():
    with pytest.raises(InstanceMismatchError):
        add(BOOLEAN.one(), _ct(1))
    with pytest.raises(InstanceMismatchError):
        mul(_mp(1), _ct(1))
    with pytest.raises(InstanceMismatchError):
        nat_leq(BOOLEAN.one(), REL2.one())


def test_function_semiring_requires_finite_base():
    with pytest.raises(NotFiniteError):
        make_function_semiring(COUNTING, ("x",))
    with pytest.raises(NotFiniteError):
        COUNTING.elements()


def test_function_semiring_inherits_flags():
    assert FUN2.is_idempotent and FUN2.is_commutative
    over_rel = make_function_semiring(REL2, ("x",))
    assert over_rel.is_idempotent and not over_rel.is_commutative


def test_function_semiring_pointwise_behaviour():
    t, f = BOOLEAN.one(), BOOLEAN.zero()
    px = FUN2.projection("x")
    py = FUN2.projection("y")
    both = mul(px, py)
    for vx in (t, f):
        for vy in (t, f):
            args = {"x": vx, "y": vy}
            assert table_at(px, args) == vx
            assert table_at(both, args) == mul(vx, vy)
    assert table_at(FUN2.one(), {"x": f, "y": f}) == t


def test_function_semiring_shared_by_parameters():
    assert make_function_semiring(BOOLEAN, ("x", "y")) is FUN2


def test_parse_render_round_trip_boolean_and_relation():
    for v in BOOLEAN.elements() + REL2.elements():
        assert _literal(v.semiring, v.semiring.render(v)) == v


@given(extended_nats)
def test_parse_render_round_trip_numeric(p):
    for sr in (MIN_PLUS, COUNTING):
        v = sr.value(p)
        assert _literal(sr, sr.render(v)) == v


def test_parse_rejects_malformed_literals():
    with pytest.raises(ValueError):
        _literal(BOOLEAN, "2")
    with pytest.raises(ValueError):
        _literal(COUNTING, "-3")
    with pytest.raises(ValueError):
        _literal(REL2, "[[0,1]]")
    with pytest.raises(ValueError):
        _literal(REL2, "[[0,2],[1,0]]")


def test_value_validation():
    with pytest.raises(ValueError):
        BOOLEAN.value(1)
    with pytest.raises(ValueError):
        COUNTING.value(-1)
    with pytest.raises(ValueError):
        REL2.value([[True]])


def test_add_all_defaults():
    assert add_all(COUNTING, []) == COUNTING.zero()
    assert add_all(COUNTING, [_ct(2), _ct(3)]) == _ct(5)


def test_vector_helpers():
    u = {"x": _ct(1), "y": _ct(2)}
    v = {"x": _ct(1), "y": _ct(3)}
    assert vector_leq(u, v) and not vector_leq(v, u)
    assert vector_eq(u, dict(u)) and not vector_eq(u, v)
    with pytest.raises(ValueError):
        vector_leq(u, {"x": _ct(1)})


def test_instance_lookup_by_name():
    assert instance_by_name("boolean") is BOOLEAN
    assert instance_by_name("minplus") is instance_by_name("min-plus")
    assert instance_by_name("relation") is REL2
    assert instance_by_name("relation", 3) is relation_semiring(3)
    with pytest.raises(ValueError):
        instance_by_name("tropical")
    with pytest.raises(ValueError):
        instance_by_name("boolean", 2)

"""Concrete semiring instances and the operations shared by all of them.

A semiring here is a carrier with an addition that acts as least upper
bound steps, a multiplication, neutral elements for both, and a star
operation summing all powers of an element.  Values are tagged with the
instance they belong to so that mixing instances fails loudly instead of
producing garbage.

Each instance computes on raw payloads through its `_add`, `_mul`,
`_star` and `_leq` hooks: bools, naturals with infinity, relations as
tuples of row bitmasks (bit j of row i is cell (i, j)), or tables.  The
solver's fixed-point loop calls these hooks directly and wraps only its
result in `Value`s.

Every record class of the package, `Value` among them, is built on one
plain base defined here: `_Record`, equal when its class and fields are
and printed as `Name(field=value, ...)`, or its frozen and hashable
subclass `_Frozen`.  No module imports `dataclasses`.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from operator import or_

INF = math.inf

# Counting values above this cap saturate to infinity.  Keeps diverging
# iterations from allocating huge ints while staying exact below the cap.
COUNTING_CAP = 2**62

# Largest relation dimension a system file may declare.  A relation[q]
# value has q * q cells, and the tensor companion works on q^2-state
# relations, so larger headers would run out of time or memory before
# any budget applies.  `relation_semiring` itself takes any dimension.
MAX_FILE_RELATION_DIM = 64


class InstanceMismatchError(TypeError):
    """An operation received values from two different semiring instances."""


class NotFiniteError(ValueError):
    """Element enumeration was requested for an infinite carrier."""


# The `__setattr__` and `__delattr__` of a frozen record: no attribute is rebound.
def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _Record:
    """A record whose fields are its `vars()`.

    A record must hold only its fields in `vars()`, in the order its
    class's `__init__` sets them: equality, hashing and the repr read
    them there.  Records are equal when their class and fields are,
    print as `Name(field=value, ...)` and are not hashable.
    """

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """A record whose fields are never rebound; it hashes as the tuple of its fields."""

    __setattr__ = __delattr__ = _frozen

    def __hash__(self):
        return hash(tuple(vars(self).values()))


class Value(_Frozen):
    """One element of a concrete semiring instance.

    The payload layout is instance specific: bools, numbers, matrices as
    tuples of row bitmasks, or output tables.  Payloads are always
    hashable, so values can be set members and dict keys.  Values are
    frozen and equal when their instance and payload are.
    """

    def __init__(self, semiring: Semiring, payload: object):
        vars(self).update(semiring=semiring, payload=payload)

    def __repr__(self) -> str:
        return f"<{self.semiring.name} {self.semiring.render(self)}>"


class Semiring:
    """Shared behaviour of one instance.

    Subclasses fill in the payload-level hooks `_add`, `_mul`, `_star` and
    `_leq`; everything else works through them.  Instances are compared by
    identity, so each concrete carrier must be a singleton (module level or
    cached by parameters).
    """

    name = "abstract"
    is_idempotent = True
    is_commutative = True
    is_finite = False

    def value(self, payload: object) -> Value:
        return Value(self, self._check(payload))

    def zero(self) -> Value:
        return Value(self, self._zero())

    def one(self) -> Value:
        return Value(self, self._one())

    def elements(self) -> list[Value]:
        if not self.is_finite:
            raise NotFiniteError(f"{self.name} carrier is not finite")
        return [Value(self, p) for p in self._elements()]

    def size(self) -> int:
        """Number of elements of a finite carrier, counted without listing them."""
        raise NotFiniteError(f"{self.name} carrier is not finite")

    def render(self, v: Value) -> str:
        return self._render(v.payload)

    # payload-level hooks
    def _check(self, payload: object) -> object:
        return payload

    def _zero(self) -> object:
        raise NotImplementedError

    def _one(self) -> object:
        raise NotImplementedError

    def _add(self, x: object, y: object) -> object:
        raise NotImplementedError

    def _mul(self, x: object, y: object) -> object:
        raise NotImplementedError

    def _star(self, x: object) -> object:
        raise NotImplementedError

    def _leq(self, x: object, y: object) -> bool:
        raise NotImplementedError

    def _elements(self) -> Iterable[object]:
        raise NotImplementedError

    def _parse(self, text: str) -> object:
        """The payload a literal spells, checked as `_check` would check it.

        Raises ValueError for text that spells no element, so callers wrap
        the result without checking it again.
        """
        raise NotImplementedError

    def _render(self, payload: object) -> str:
        return str(payload)


def _same_instance(a: Value, b: Value) -> Semiring:
    if a.semiring is not b.semiring:
        raise InstanceMismatchError(
            f"cannot combine {a.semiring.name} value with {b.semiring.name} value"
        )
    return a.semiring


def add(a: Value, b: Value) -> Value:
    sr = _same_instance(a, b)
    return Value(sr, sr._add(a.payload, b.payload))


def mul(a: Value, b: Value) -> Value:
    sr = _same_instance(a, b)
    return Value(sr, sr._mul(a.payload, b.payload))


def star(a: Value) -> Value:
    return Value(a.semiring, a.semiring._star(a.payload))


def nat_leq(a: Value, b: Value) -> bool:
    """Natural order: a precedes b when adding a to b changes nothing."""
    sr = _same_instance(a, b)
    return sr._leq(a.payload, b.payload)


def add_all(sr: Semiring, values: Iterable[Value]) -> Value:
    """Sum of a finite collection, zero when empty."""
    total = sr.zero()
    for v in values:
        total = add(total, v)
    return total


def vector_eq(u: Mapping[str, Value], v: Mapping[str, Value]) -> bool:
    return dict(u) == dict(v)


def vector_leq(u: Mapping[str, Value], v: Mapping[str, Value]) -> bool:
    """Componentwise natural order over a shared key set."""
    if set(u) != set(v):
        raise ValueError("vectors cover different variables")
    return all(nat_leq(u[x], v[x]) for x in u)


class BooleanSemiring(Semiring):
    """Truth values with or, and. Star is constantly true."""

    name = "boolean"
    is_idempotent = True
    is_commutative = True
    is_finite = True

    def _check(self, payload):
        if not isinstance(payload, bool):
            raise ValueError(f"boolean payload must be bool, got {payload!r}")
        return payload

    def _zero(self):
        return False

    def _one(self):
        return True

    def _add(self, x, y):
        return x or y

    def _mul(self, x, y):
        return x and y

    def _star(self, x):
        return True

    def _leq(self, x, y):
        return (not x) or y

    def size(self):
        return 2

    def _elements(self):
        return [False, True]

    def _parse(self, text):
        if text == "0":
            return False
        if text == "1":
            return True
        raise ValueError(f"boolean literal must be 0 or 1, got {text!r}")

    def _render(self, payload):
        return "1" if payload else "0"


def _check_extended_nat(payload, label):
    if payload == INF:
        return INF
    if isinstance(payload, bool) or not isinstance(payload, int) or payload < 0:
        raise ValueError(f"{label} payload must be a natural number or inf, got {payload!r}")
    return payload


def _parse_extended_nat(text, label):
    if text == "inf":
        return INF
    if text.isdecimal():  # str.isdigit also admits '²', which int() rejects
        return int(text)
    raise ValueError(f"{label} literal must be digits or inf, got {text!r}")


def _render_extended_nat(payload):
    return "inf" if payload == INF else str(payload)


class MinPlusSemiring(Semiring):
    """Naturals with infinity under min and numeric addition.

    Addition picks the cheaper cost and multiplication accumulates cost,
    so the natural order is the reverse of the numeric one and star of any
    element is 0.
    """

    name = "min-plus"
    is_idempotent = True
    is_commutative = True
    is_finite = False

    def _check(self, payload):
        return _check_extended_nat(payload, self.name)

    def _zero(self):
        return INF

    def _one(self):
        return 0

    def _add(self, x, y):
        return min(x, y)

    def _mul(self, x, y):
        try:
            return x + y
        except OverflowError:  # INF plus an int beyond float range: INF absorbs it
            return INF

    def _star(self, x):
        return 0

    def _leq(self, x, y):
        return y <= x

    def _parse(self, text):
        return _parse_extended_nat(text, self.name)

    def _render(self, payload):
        return _render_extended_nat(payload)


class CountingSemiring(Semiring):
    """Naturals with infinity under ordinary addition and multiplication.

    The one non-idempotent instance, kept as a stress test: 1 + 1 = 2.
    Star is 1 at zero and infinity everywhere else, and results above
    COUNTING_CAP saturate to infinity; a literal above it is rejected.
    Infinity is the float `INF`, so it absorbs in native `+`, and in `*`
    once the zero guard has kept 0 * INF at 0.  `_add` and `_mul` compare
    the native result with the cap, and only a result past it goes
    through `_cap`, the one place where saturation happens.
    """

    name = "counting"
    is_idempotent = False
    is_commutative = True
    is_finite = False

    def _check(self, payload):
        payload = _check_extended_nat(payload, self.name)
        return INF if payload != INF and payload > COUNTING_CAP else payload

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _cap(self, n):
        return INF if n > COUNTING_CAP else n

    def _add(self, x, y):
        n = x + y
        return n if n <= COUNTING_CAP else self._cap(n)

    def _mul(self, x, y):
        # guard keeps 0 absorbing even against infinity
        if x == 0 or y == 0:
            return 0
        n = x * y
        return n if n <= COUNTING_CAP else self._cap(n)

    def _star(self, x):
        return 1 if x == 0 else INF

    def _leq(self, x, y):
        return x <= y

    def _parse(self, text):
        # a literal is read exactly or rejected, never saturated
        payload = _parse_extended_nat(text, self.name)
        if payload != INF and payload > COUNTING_CAP:
            raise ValueError(f"{self.name} literal {text} is above 2^62; write inf for infinity")
        return payload

    def _render(self, payload):
        return _render_extended_nat(payload)


# _SET_BITS[b] lists the positions of the set bits of the byte b.
_SET_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


class RelationSemiring(Semiring):
    """Square boolean matrices under union and relational composition.

    A payload is a tuple of q row bitmasks: bit j of row i is set when
    cell (i, j) is.  `value` takes a list or tuple of q rows, each a
    bitmask or a list or tuple of q cells (0, 1, False or True), as
    callers write them, and `_parse` reads the same rows from their
    text, JSON such as [[0,1],[1,0]].  Star is reflexive transitive
    closure.  Composition only commutes in dimension one.

    Up to q = 8 every row is one byte.  `__init__` then builds two
    tables, `_row_texts[mask]`, the compact text of a row such as
    "0,1,1", and its inverse `_row_masks`, and binds `_mul` and `_render`
    to byte-row kernels: a product row joins the rows of y that one
    `_SET_BITS` entry lists, and a rendered row is one table entry.
    `_parse` looks a literal's rows up in `_row_masks` when the literal
    is the compact text of a payload and hands any other text to the
    JSON reader, so every literal reads or fails as it would at any q.
    Wider rows take the general methods.
    """

    name = "relation"
    is_idempotent = True
    is_finite = True

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("relation dimension must be at least 1")
        self.q = q
        self.name = f"relation[{q}]"
        self.is_commutative = q == 1
        self._zero_rows = (0,) * q
        self._one_rows = tuple(1 << i for i in range(q))
        self._row_masks = None
        if q <= 8:
            self._row_texts = tuple(",".join(format(m, f"0{q}b")[::-1]) for m in range(1 << q))
            self._row_masks = {text: m for m, text in enumerate(self._row_texts)}
            self._mul = self._mul_byte_rows
            self._render = self._render_byte_rows

    def _check(self, payload):
        q = self.q
        if not isinstance(payload, (list, tuple)):
            raise ValueError(f"relation payload must be a {q}x{q} matrix")
        rows = []
        for row in payload:
            if type(row) is int:
                if not 0 <= row < 1 << q:
                    raise ValueError(f"relation row {row!r} has bits beyond {q} columns")
            elif not isinstance(row, (list, tuple, str)):
                # a set or dict has no cell order; a string fails on its first cell
                raise ValueError(f"relation row must be a bitmask or a list of cells, got {row!r}")
            else:
                cells = list(row)
                for c in cells:
                    if type(c) not in (bool, int) or c not in (0, 1):  # not "1", 2 or 1.0
                        raise ValueError(f"relation cells must be 0 or 1, got {c!r}")
                if len(cells) != q:
                    raise ValueError(f"relation payload must be a {q}x{q} matrix")
                row = sum(1 << j for j, c in enumerate(cells) if c)
            rows.append(row)
        if len(rows) != q:
            raise ValueError(f"relation payload must be a {q}x{q} matrix")
        return tuple(rows)

    def _zero(self):
        return self._zero_rows

    def _one(self):
        return self._one_rows

    def _add(self, x, y):
        return tuple(map(or_, x, y))

    def _mul(self, x, y):
        # row i of the product is the union of the rows of y that row i of x selects
        out = []
        for row in x:
            acc = 0
            base = 0
            while row:
                for j in _SET_BITS[row & 255]:
                    acc |= y[base + j]
                row >>= 8
                base += 8
            out.append(acc)
        return tuple(out)

    def _mul_byte_rows(self, x, y):
        out = []
        for row in x:
            acc = 0
            for j in _SET_BITS[row]:
                acc |= y[j]
            out.append(acc)
        return tuple(out)

    def _star(self, x):
        # Warshall on bit rows: after pivot k, row i holds every j reachable via 0..k
        closure = [row | 1 << i for i, row in enumerate(x)]
        for k, bit in enumerate(self._one_rows):
            row_k = closure[k]
            for i, row_i in enumerate(closure):
                if row_i & bit:
                    closure[i] = row_i | row_k
        return tuple(closure)

    def _leq(self, x, y):
        return all(not a & ~b for a, b in zip(x, y))

    def size(self):
        return 1 << (self.q * self.q)

    def _elements(self):
        # the order of the nested form: cell (0, 0) varies slowest
        q = self.q
        rows = [sum(1 << j for j in range(q) if k >> (q - 1 - j) & 1) for k in range(1 << q)]
        return itertools.product(rows, repeat=q)

    def _parse(self, text):
        # the compact text of a payload joins q row texts, which json reads to the same rows
        masks = self._row_masks
        if masks is not None and text.startswith("[[") and text.endswith("]]"):
            rows = tuple(map(masks.get, text[2:-2].split("],[")))
            if len(rows) == self.q and None not in rows:
                return rows
        return self._parse_json(text)

    def _parse_json(self, text):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"relation literal must look like [[0,1],[1,0]]: {exc}") from exc
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise ValueError("relation literal must be a list of rows")
        for row in raw:
            for cell in row:
                if type(cell) is not int or cell not in (0, 1):  # not false, true or 1.0
                    raise ValueError(f"relation cells must be 0 or 1, got {cell!r}")
        q = self.q
        if len(raw) != q or any(len(row) != q for row in raw):
            raise ValueError(f"relation payload must be a {q}x{q} matrix")
        return tuple(sum(1 << j for j, cell in enumerate(row) if cell) for row in raw)

    def _render(self, payload):
        # the text of json.dumps(cells, separators=(",", ":")): cell j of a row is bit j
        bits = f"0{self.q}b"
        return "[[" + "],[".join([",".join(format(row, bits)[::-1]) for row in payload]) + "]]"

    def _render_byte_rows(self, payload):
        return "[[" + "],[".join([self._row_texts[row] for row in payload]) + "]]"


class FunctionSemiring(Semiring):
    """Finite tables from argument vectors into a finite base instance.

    All operations act pointwise, so idempotence and commutativity are
    inherited from the base.  A table payload lists one base payload per
    argument vector, in the fixed enumeration order of `points`.
    """

    name = "function"
    is_finite = True

    def __init__(self, base: Semiring, variables: tuple[str, ...]):
        if not base.is_finite:
            raise NotFiniteError("function semiring needs a finite base instance")
        self.base = base
        self.variables = variables
        base_payloads = [v.payload for v in base.elements()]
        self.points = tuple(itertools.product(base_payloads, repeat=len(variables)))
        self.name = f"function[{base.name}; {' '.join(variables) if variables else '()'}]"
        self.is_idempotent = base.is_idempotent
        self.is_commutative = base.is_commutative

    def _check(self, payload):
        table = tuple(self.base._check(p) for p in payload)
        if len(table) != len(self.points):
            raise ValueError(
                f"table must have {len(self.points)} entries, got {len(table)}"
            )
        return table

    def _zero(self):
        return tuple(self.base._zero() for _ in self.points)

    def _one(self):
        return tuple(self.base._one() for _ in self.points)

    def _add(self, x, y):
        return tuple(self.base._add(a, b) for a, b in zip(x, y))

    def _mul(self, x, y):
        return tuple(self.base._mul(a, b) for a, b in zip(x, y))

    def _star(self, x):
        return tuple(self.base._star(a) for a in x)

    def _leq(self, x, y):
        return all(self.base._leq(a, b) for a, b in zip(x, y))

    def size(self):
        return self.base.size() ** len(self.points)

    def _elements(self):
        base_payloads = [v.payload for v in self.base.elements()]
        return itertools.product(base_payloads, repeat=len(self.points))

    def _render(self, payload):
        entries = []
        for point, out in zip(self.points, payload):
            args = ",".join(self.base._render(p) for p in point)
            entries.append(f"({args})->{self.base._render(out)}")
        return "{" + ", ".join(entries) + "}"

    def projection(self, var: str) -> Value:
        """Table returning the argument supplied for one variable."""
        i = self.variables.index(var)
        return Value(self, tuple(point[i] for point in self.points))


BOOLEAN = BooleanSemiring()
MIN_PLUS = MinPlusSemiring()
COUNTING = CountingSemiring()


@lru_cache(maxsize=None)
def relation_semiring(q: int = 2) -> RelationSemiring:
    """The boolean matrix instance of a given dimension, one per q."""
    return RelationSemiring(q)


@lru_cache(maxsize=None)
def make_function_semiring(base: Semiring, variables: Sequence[str]) -> FunctionSemiring:
    """Pointwise instance of finite tables over a finite base.

    Cached per (base, variable tuple) so repeated requests share one
    instance and their values stay combinable.
    """
    return FunctionSemiring(base, tuple(variables))


_PARAMETERLESS = {
    "boolean": BOOLEAN,
    "min-plus": MIN_PLUS,
    "minplus": MIN_PLUS,
    "counting": COUNTING,
}


def instance_by_name(name: str, param: int | None = None) -> Semiring:
    """Look a concrete instance up by its file-format name.

    A relation dimension above `MAX_FILE_RELATION_DIM` is a `ValueError`.
    """
    sr = _PARAMETERLESS.get(name)
    if sr is not None:
        if param is not None:
            raise ValueError(f"{sr.name} takes no parameter")
        return sr
    if name == "relation":
        if param is not None and param > MAX_FILE_RELATION_DIM:
            raise ValueError(
                f"relation dimension {param} is above the limit of {MAX_FILE_RELATION_DIM}"
            )
        return relation_semiring(2 if param is None else param)
    raise ValueError(f"unknown semiring {name!r}")

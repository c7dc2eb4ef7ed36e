"""Independent reference evaluator for the benchmark's raw systems.

Works on the generator's own description of a system, never on what the
program parsed, and calls nothing from the package.  Payloads are plain
Python values: bools, ints with ``INF``, and relations as one int bitmask
per row (bit j of row i set when i relates to j).

A raw system is ``(kind, q, variables, equations)`` where ``kind`` is one
of ``boolean``, ``min-plus``, ``counting``, ``relation``; ``equations``
maps each variable to a list of monomials, each monomial a list of
factors; a factor is a variable name (``str``) or a payload.  A monomial
with no variable is a constant summand.
"""

from __future__ import annotations

import json
import math

INF = math.inf
COUNTING_CAP = 2**62


class Ops:
    """Zero, one, sum, product and rendering of one instance."""

    def __init__(self, kind: str, q: int | None = None):
        self.kind = kind
        self.q = q
        if kind == "boolean":
            self.zero, self.one = False, True
        elif kind == "min-plus":
            self.zero, self.one = INF, 0
        elif kind == "counting":
            self.zero, self.one = 0, 1
        elif kind == "relation":
            self.zero = (0,) * q
            self.one = tuple(1 << i for i in range(q))
        else:
            raise ValueError(f"unknown instance {kind!r}")

    def add(self, x, y):
        k = self.kind
        if k == "boolean":
            return x or y
        if k == "min-plus":
            return min(x, y)
        if k == "counting":
            s = x + y
            return INF if s > COUNTING_CAP else s
        return tuple(a | b for a, b in zip(x, y))

    def mul(self, x, y):
        k = self.kind
        if k == "boolean":
            return x and y
        if k == "min-plus":
            return x + y
        if k == "counting":
            if x == 0 or y == 0:
                return 0
            p = x * y
            return INF if p > COUNTING_CAP else p
        out = []
        for row in x:
            acc, j = 0, 0
            while row:
                if row & 1:
                    acc |= y[j]
                row >>= 1
                j += 1
            out.append(acc)
        return tuple(out)

    def render(self, x) -> str:
        k = self.kind
        if k == "boolean":
            return "1" if x else "0"
        if k in ("min-plus", "counting"):
            return "inf" if x == INF else str(x)
        rows = [[(row >> j) & 1 for j in range(self.q)] for row in x]
        return json.dumps(rows, separators=(",", ":"))


def ops_of(raw) -> Ops:
    kind, q, _, _ = raw
    return Ops(kind, q)


def _product(ops: Ops, factors, v):
    out = ops.one
    for f in factors:
        out = ops.mul(out, v[f] if isinstance(f, str) else f)
    return out


def eval_rhs(raw, ops: Ops, v: dict) -> dict:
    """One application of every right-hand side at the point v."""
    _, _, variables, equations = raw
    out = {}
    for x in variables:
        total = ops.zero
        for mono in equations[x]:
            total = ops.add(total, _product(ops, mono, v))
        out[x] = total
    return out


def kleene(raw, ops: Ops, max_iters: int):
    """Plain iteration from zero: (vector, stabilized, applications used)."""
    _, _, variables, _ = raw
    v = {x: ops.zero for x in variables}
    for used in range(max_iters):
        nxt = eval_rhs(raw, ops, v)
        if nxt == v:
            return v, True, used
        v = nxt
    return v, False, max_iters


def completion(raw, ops: Ops, v: dict, max_iters: int = 1_000_000) -> dict:
    """Least u with u = v + D_v(u), by plain iteration from zero.

    D_v(u) sums, over every variable occurrence of every monomial, the
    factors left of it at v, times u at that variable, times the factors
    right of it at v.  Only meant for idempotent instances, where the
    iteration reaches its limit in finitely many rounds.
    """
    _, _, variables, equations = raw
    linear = {x: [] for x in variables}
    for x in variables:
        for mono in equations[x]:
            for pos, f in enumerate(mono):
                if isinstance(f, str):
                    left = _product(ops, mono[:pos], v)
                    right = _product(ops, mono[pos + 1 :], v)
                    linear[x].append((left, f, right))
    u = {x: ops.zero for x in variables}
    for _ in range(max_iters):
        nxt = {}
        for x in variables:
            total = v[x]
            for left, y, right in linear[x]:
                total = ops.add(total, ops.mul(ops.mul(left, u[y]), right))
            nxt[x] = total
        if nxt == u:
            return u
        u = nxt
    raise RuntimeError("reference completion did not stabilize")


def constants(raw, ops: Ops) -> dict:
    """The constant part a, which is also f applied to the zero vector."""
    _, _, variables, _ = raw
    return eval_rhs(raw, ops, {x: ops.zero for x in variables})


def completion_powers(raw, ops: Ops, k: int) -> list[dict]:
    """[a, C(a), C(C(a)), ...] up to C^k(a): the Newton iterates from a."""
    out = [constants(raw, ops)]
    for _ in range(k):
        out.append(completion(raw, ops, out[-1]))
    return out


def rendered(ops: Ops, v: dict) -> dict[str, str]:
    return {x: ops.render(p) for x, p in v.items()}

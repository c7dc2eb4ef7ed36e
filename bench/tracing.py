"""Tracing of the package from outside, by rebinding its functions.

Every public function of the traced modules (plus the ladder's two layer
solvers) is replaced by a wrapper, at its definition and at every
``from semifix.X import name`` site, so calls between modules are seen
too.  A wrapper keeps a call count and the function's self time: its
duration minus the part covered by wrapped calls it made.  Functions of
the layers above ``polynomial`` also record a span (id, name, start,
end, parent span, command id); ``polynomial`` and ``semiring`` calls run
millions of times, so they are counted and timed into their caller's
span instead.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "munchausen", "tensor", "solver", "polynomial", "semiring")
NO_SPAN_LAYERS = ("polynomial", "semiring")
PRIVATE_WRAPPED = {"munchausen": ("_layer_linear", "_layer_expansion")}


class Tracer:
    """Counts, self times, spans and solver statistics of one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.stats: Counter = Counter()
        self.spans: list = []
        self.command = -1
        self._stack: list = []  # frames: [child seconds, span id]
        self._next_span = 0
        self._restore: list = []

    def _wrap(self, qual: str, fn, with_span: bool):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        before, after = HOOKS.get(qual, (None, None))

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = parent
            if with_span:
                span = self._next_span
                self._next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            mark = before(args) if before else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[qual] += dur - frame[0]
                calls[qual] += 1
                if stack:
                    stack[-1][0] += dur
                if with_span:
                    spans.append((span, qual, t0, t1, parent, self.command))
            if after:
                after(self.stats, args, result, mark)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every traced function in every package module."""
        modules = {name: importlib.import_module(f"semifix.{name}") for name in LAYERS}
        everywhere = [importlib.import_module("semifix"), *modules.values()]
        everywhere.append(importlib.import_module("semifix.grammar"))
        for layer, mod in modules.items():
            names = [
                n
                for n, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not n.startswith("_")
            ]
            names += [n for n in PRIVATE_WRAPPED.get(layer, ()) if hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                qual = f"{layer}.{n}"
                wrapper = self._wrap(qual, fn, layer not in NO_SPAN_LAYERS)
                for site in everywhere:
                    for attr, obj in list(vars(site).items()):
                        if obj is fn:
                            self._restore.append((site, attr, fn))
                            setattr(site, attr, wrapper)

    def uninstall(self):
        for site, n, fn in reversed(self._restore):
            setattr(site, n, fn)
        self._restore.clear()

    def missed_sites(self) -> list[str]:
        """Required import sites that still bind an unwrapped function."""
        missed = []
        for module, name in REQUIRED_SITES:
            obj = vars(importlib.import_module(f"semifix.{module}")).get(name)
            if obj is not None and not hasattr(obj, "__wrapped__"):
                missed.append(f"{module}.{name}")
        return missed

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for q, t in self.self_s.items() if q.startswith(prefix))

    def write_spans(self, path):
        """One JSON array per line: id, name, start, end, parent, command."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _changed(iterates) -> int:
    return sum(1 for a, b in zip(iterates, iterates[1:]) if a != b)


def _kleene(stats, args, out, _):
    stats["solver.kleene_solve.steps"] += out.steps_used


def _linear(stats, args, out, _):
    stats["solver.solve_linear.iters"] += out.steps_used


def _newton(stats, args, seq, _):
    # base: Newton iterates computed after the first, over all calls
    stats["solver.newton.computed"] += max(len(seq.iterates) - 1, 0)
    stats["solver.newton.changed"] += _changed(seq.iterates)


def _sequence(stats, args, seq, _):
    # base: ladder iterates computed after iterate 0, over all calls
    stats["munchausen.computed"] += max(len(seq.iterates) - 1, 0)
    stats["munchausen.changed"] += _changed(seq.iterates)


def _grammar(stats, args, lg, _):
    stats["munchausen.grammar_rules"] += sum(len(words) for words in lg.rules.values())


def _expansion(stats, args, result, spent_before):
    # the shared expansion counter is the last positional argument
    stats["munchausen.expansions"] += args[-1][0] - spent_before


# qualified name -> (taken before the call, folded into stats after it)
HOOKS = {
    "solver.kleene_solve": (None, _kleene),
    "solver.solve_linear": (None, _linear),
    "solver.newton_solve": (None, _newton),
    "munchausen.munchausen_sequence": (None, _sequence),
    "munchausen.munchausen_grammar": (None, _grammar),
    "munchausen._layer_expansion": (lambda args: args[-1][0], _expansion),
}

# Import sites the per-layer counts depend on.  Where a module still
# binds one of these names, it must reach the wrapper, or its counts
# would silently read 0.
REQUIRED_SITES = (
    ("polynomial", "add"), ("polynomial", "mul"),
    ("tensor", "add"), ("tensor", "mul"), ("tensor", "star"),
    ("munchausen", "solve_linear"), ("munchausen", "kleene_solve"),
    ("munchausen", "add_all"), ("munchausen", "mul_all"),
    ("solver", "eval_poly"), ("solver", "eval_rhs"), ("solver", "differential_full"),
    ("cli", "kleene_solve"), ("cli", "newton_solve"), ("cli", "munchausen_sequence"),
    ("cli", "tensor_pipeline"), ("cli", "completion_via_differential_star"),
    ("cli", "parse"),
)


def metrics(tracer: Tracer, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass, as (value, unit) by name."""
    c, s, st = tracer.calls, tracer.self_s, tracer.stats

    def ms_per_cmd(seconds):
        return 1000.0 * seconds / commands, "ms/cmd"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    def count(n):
        return n, "count"

    ops = c["semiring.add"] + c["semiring.mul"] + c["semiring.star"]
    op_s = s["semiring.add"] + s["semiring.mul"] + s["semiring.star"]
    return {
        "cli.main.self_ms": ms_per_cmd(tracer.layer_self_s("cli") - s["cli.parse"]),
        "cli.parse.self_ms": ms_per_cmd(s["cli.parse"]),
        "solver.kleene_solve.steps": count(st["solver.kleene_solve.steps"]),
        "solver.self_ms": ms_per_cmd(tracer.layer_self_s("solver")),
        "solver.solve_linear.calls": count(c["solver.solve_linear"]),
        "solver.solve_linear.iters": count(st["solver.solve_linear.iters"]),
        "solver.newton.useful_ratio": ratio(st["solver.newton.changed"], st["solver.newton.computed"]),
        "munchausen.grammar_rules": count(st["munchausen.grammar_rules"]),
        "munchausen.layers": count(c["munchausen._layer_linear"] + c["munchausen._layer_expansion"]),
        "munchausen.useful_ratio": ratio(st["munchausen.changed"], st["munchausen.computed"]),
        "munchausen.self_ms": ms_per_cmd(tracer.layer_self_s("munchausen")),
        "munchausen.expansions": count(st["munchausen.expansions"]),
        "tensor.cycles": count(c["tensor.solve_left_linear"]),
        "tensor.matrix_star.calls": count(c["tensor.matrix_star"]),
        "tensor.self_ms": ms_per_cmd(tracer.layer_self_s("tensor")),
        "polynomial.eval_poly.calls": count(c["polynomial.eval_poly"]),
        "polynomial.differential_full.calls": count(c["polynomial.differential_full"]),
        "polynomial.self_ms": ms_per_cmd(tracer.layer_self_s("polynomial")),
        "semiring.add.calls": count(c["semiring.add"]),
        "semiring.mul.calls": count(c["semiring.mul"]),
        "semiring.star.calls": count(c["semiring.star"]),
        "semiring.self_ms": ms_per_cmd(tracer.layer_self_s("semiring")),
        "semiring.ns_per_op": (1e9 * op_s / ops if ops else 0.0, "ns"),
    }

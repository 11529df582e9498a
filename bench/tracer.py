"""Spans and work counts around calls into the package's public functions.

The tracer wraps each function in ``FUNCTIONS`` and ``METHODS`` from the
outside: it replaces the function in its home module and every from-import
binding of it in the other ``clusterforge`` modules, and puts everything
back on ``uninstall``.  The program itself is not changed.

Per wrapped name it keeps calls, self time (span minus the time covered by
wrapped children), total time and calls that raised.  Spans are kept in
memory as ``(op_id, name, parent, start_ns, end_ns)`` and written out at
the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

from clusterforge.laurent import LaurentPolynomial

# (module, function) pairs, wrapped under the name "module.function".
FUNCTIONS = (
    ("laurent", "exact_divide"),
    ("intmat", "mat_mul"),
    ("quiver", "mutate"),
    ("quiver", "fpoly_recurrence"),
    ("quiver", "degree_bounds"),
    ("cmatrix", "trace"),
    ("cmatrix", "coeff_a"),
    ("cmatrix", "coeff_b"),
    ("closedform", "fpoly_formula"),
    ("closedform", "fpoly_product_form"),
    ("closedform", "deformed_coefficients"),
    ("closedform", "coefficient_of"),
    ("families", "fpoly_kr"),
    ("families", "fpoly_gale_robinson"),
    ("families", "fpoly_symmetric"),
    ("stabilization", "stabilization_run"),
    ("stabilization", "fundamentals"),
    ("stabilization", "limit_a1r"),
    ("stabilization", "limit_kr"),
    ("stabilization", "limit_gale_robinson"),
    ("stabilization", "dp1_coefficient"),
    ("verify", "run_verification"),
    ("cli", "main"),
)
# name -> LaurentPolynomial attributes that share one wrapper
METHODS = {
    "laurent.mul": ("__mul__", "__rmul__"),
    "laurent.to_text": ("to_text",),
}

COUNTS = (
    "laurent.mul.pairs",
    "laurent.mul.terms_out",
    "laurent.exact_divide.quotient_terms",
    "laurent.exact_divide.divisor_terms",
    "closedform.fpoly_formula.terms_out",
    "closedform.fpoly_product_form.terms_out",
    "closedform.deformed_coefficients.terms_out",
)


def _count_mul(counts, args, result):
    a, b = args
    if isinstance(b, LaurentPolynomial):
        width = len(b.terms)
    else:  # an int operand is coerced to a constant polynomial
        width = 1 if isinstance(b, int) and b else 0
    counts["laurent.mul.pairs"] += len(a.terms) * width
    if isinstance(result, LaurentPolynomial):
        counts["laurent.mul.terms_out"] += len(result.terms)


def _count_divide(counts, args, result):
    counts["laurent.exact_divide.quotient_terms"] += len(result.terms)
    counts["laurent.exact_divide.divisor_terms"] += len(args[1].terms)


def _count_terms(key):
    def count(counts, args, result):
        counts[key] += len(result.terms) if hasattr(result, "terms") else len(result)
    return count


COUNTERS = {
    "laurent.mul": _count_mul,
    "laurent.exact_divide": _count_divide,
    "closedform.fpoly_formula": _count_terms("closedform.fpoly_formula.terms_out"),
    "closedform.fpoly_product_form": _count_terms("closedform.fpoly_product_form.terms_out"),
    "closedform.deformed_coefficients": _count_terms(
        "closedform.deformed_coefficients.terms_out"),
}


def wrapped_names():
    return [f"{module}.{name}" for module, name in FUNCTIONS] + list(METHODS)


class Tracer:
    """Install with ``install()``; set ``op_id`` before each op."""

    def __init__(self):
        self.op_id = None
        self.stats = {name: [0, 0, 0, 0] for name in wrapped_names()}  # calls, self, total, raised
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list[tuple] = []
        self.patched: list[str] = []  # "module.attr" of every binding replaced
        self._stack: list[list[int]] = []  # [span index, child ns] per open span
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        counter = COUNTERS.get(name)
        stack = self._stack
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            stack.append(frame)
            raised = 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                end = perf_counter_ns()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                stats[0] += 1
                stats[1] += total - frame[1]
                stats[2] += total
                stats[3] += raised
                spans[index] = (self.op_id, name, parent, start, end)
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def _replace(self, owner, attr, new, label):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)
        self.patched.append(label)

    def install(self):
        modules = {name: module for name, module in sys.modules.items()
                   if name == "clusterforge" or name.startswith("clusterforge.")}
        for module_name, attr in FUNCTIONS:
            original = getattr(modules[f"clusterforge.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for owner_name, owner in sorted(modules.items()):
                for binding, value in list(vars(owner).items()):
                    if value is original:
                        label = owner_name.removeprefix("clusterforge.") + "." + binding
                        self._replace(owner, binding, wrapper, label)
        for name, attrs in METHODS.items():
            wrapper = self._wrap(name, getattr(LaurentPolynomial, attrs[0]))
            for attr in attrs:
                self._replace(LaurentPolynomial, attr, wrapper,
                              f"laurent.LaurentPolynomial.{attr}")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Per-layer metrics: {name: (value, unit)}."""
        out = {}
        for name, (calls, self_ns, total_ns, raised) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_ns / 1e9, "s")
            out[f"{name}.total_s"] = (total_ns / 1e9, "s")
            out[f"{name}.raised"] = (raised, "count")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        pairs = self.counts["laurent.mul.pairs"]
        out["laurent.mul.terms_per_pair"] = (
            self.counts["laurent.mul.terms_out"] / pairs if pairs else 0.0, "ratio")
        return out

    def write_spans(self, path):
        """Write spans as {"fields": [...], "spans": [[...], ...]}."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["op_id", "name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, handle, separators=(",", ":"))

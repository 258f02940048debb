"""Per-layer spans around the kernel's public functions, from outside it.

`KernelTrace` replaces each traced function or method by a wrapper in every
``superproj`` namespace that holds it (``cli``, ``thomas`` and ``poisson_bv``
import names directly) and restores the originals on exit.  A wrapper keeps
running aggregates per operation in memory: the call count and the self
time, i.e. the span's duration minus the time covered by its child spans.
Time in code that is not traced (sympy ``QQ`` arithmetic inside a
``SuperFunction`` op, say) counts toward the innermost traced caller.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

# (metric op, module, attribute); "Class.method" patches the class.
OPS = (
    ("graded_algebra.mul", "graded_algebra", "SuperFunction.__mul__"),
    ("graded_algebra.add", "graded_algebra", "SuperFunction.__add__"),
    ("graded_algebra.scale", "graded_algebra", "SuperFunction.scale"),
    ("graded_algebra.partial", "graded_algebra", "SuperFunction.partial"),
    ("graded_algebra.invert", "graded_algebra", "SuperFunction.invert"),
    ("graded_algebra.substitute", "graded_algebra", "SuperFunction.substitute"),
    ("expressions.parse", "expressions", "parse_expression"),
    ("expressions.format", "expressions", "format_super"),
    ("geometry.change", "geometry", "CoordinateChange.__post_init__"),
    ("geometry.jacobian", "geometry", "jacobian_rows"),
    ("geometry.jacobian", "geometry", "inverse_jacobian_rows"),
    ("geometry.transform", "geometry", "transform_connection"),
    ("geometry.transform", "geometry", "transform_sym2cov"),
    ("geometry.transform", "geometry", "transform_upper2"),
    ("geometry.schwarzian", "geometry", "super_schwarzian"),
    ("geometry.projective_class", "geometry", "projective_class"),
    ("geometry.pullback", "geometry", "CoordinateChange.pullback"),
    ("geometry.berezinian", "geometry", "berezinian"),
    ("densities.apply", "densities", "DensityOperator.__call__"),
    ("densities.element_mul", "densities", "DensityElement.__mul__"),
    ("densities.operator_build", "densities", "canonical_operator"),
    ("densities.operator_build", "densities", "projective_laplacian"),
    ("densities.compose", "densities", "DensityOperator.compose"),
    ("densities.adjoint", "densities", "formal_adjoint"),
    ("densities.bracket", "densities", "generated_bracket"),
    ("densities.bracket", "densities", "bracket_from_triple"),
    ("densities.operators_equal", "densities", "operators_equal"),
    ("densities.op_order", "densities", "op_order"),
    ("densities.test_family", "densities", "density_test_family"),
    ("thomas.lift", "thomas", "lift_connection"),
    ("thomas.lift", "thomas", "lift_projective_class"),
    ("thomas.extension_operator", "thomas", "extension_operator"),
    ("thomas.extend_bracket", "thomas", "extend_bracket"),
    ("thomas.embed", "thomas", "TildeChart.embed"),
    ("poisson_bv.canonical_pb", "poisson_bv", "canonical_pb"),
    ("poisson_bv.jacobiator", "poisson_bv", "jacobiator"),
    ("poisson_bv.bv_check", "poisson_bv", "bv_check"),
    ("poisson_bv.density_jacobi_check", "poisson_bv", "density_jacobi_check"),
    ("poisson_bv.nondegenerate", "poisson_bv", "symplectic_canonical_check"),
    ("poisson_bv.nondegenerate", "poisson_bv", "projective_poisson_check"),
    ("cli.parse", "cli", "parse_scenario"),
    ("cli.emit", "cli", "emit_report"),
)

MODULES = ("graded_algebra", "expressions", "geometry", "densities", "thomas",
           "poisson_bv", "cli")


def check_kinds() -> list:
    from superproj.cli import CHECK_HANDLERS

    return sorted(CHECK_HANDLERS)


def metric_names() -> list:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for op in dict.fromkeys(op for op, _, _ in OPS):
        names += [f"{op}.calls", f"{op}.self_s"]
    names += ["graded_algebra.mul.term_pairs", "densities.test_family.elements"]
    for kind in check_kinds():
        names += [f"cli.check.{kind}.calls", f"cli.check.{kind}.s"]
    names += [f"{module}.self_s" for module in MODULES]
    return names


class KernelTrace:
    """Context manager: while active, every traced call is aggregated."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # inclusive, for check kinds
        self.counters = defaultdict(int)
        self._stack = [0.0]  # child time accumulated per open span
        self._restore = []

    def _wrap(self, op: str, func, count=None):
        """`func` as a span named `op`; `count(args, result)`, if given,
        updates a counter after each call."""
        calls, self_s, total_s, stack = (
            self.calls, self.self_s, self.total_s, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stack[-1] += span
                calls[op] += 1
                self_s[op] += span - children
                total_s[op] += span
            if count is not None:
                count(args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        import superproj.cli as cli

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name.startswith("superproj.")]
        counters = self.counters

        def count_pairs(args, _):
            counters["graded_algebra.mul.term_pairs"] += (
                len(args[0].terms) * len(args[1].terms))

        def count_family(_, family):
            counters["densities.test_family.elements"] += len(family)

        counts = {"graded_algebra.mul": count_pairs,
                  "densities.test_family": count_family}
        for op, module, attr in OPS:
            home = sys.modules[f"superproj.{module}"]
            count = counts.get(op)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(op, cls.__dict__[meth], count))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(op, original, count)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapped)
        handlers = cli.CHECK_HANDLERS
        for kind in check_kinds():
            handler = handlers[kind]
            self._restore.append((handlers, kind, handler))
            handlers[kind] = dataclasses.replace(
                handler, run=self._wrap(f"cli.check.{kind}", handler.run))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        return False

    def metrics(self) -> dict:
        """Per-layer (value, unit) by name (see `metric_names`)."""
        out = {}
        for op in dict.fromkeys(op for op, _, _ in OPS):
            out[f"{op}.calls"] = (self.calls[op], "count")
            out[f"{op}.self_s"] = (self.self_s[op], "s")
        for name in ("graded_algebra.mul.term_pairs",
                     "densities.test_family.elements"):
            out[name] = (self.counters[name], "count")
        for kind in check_kinds():
            op = f"cli.check.{kind}"
            out[f"{op}.calls"] = (self.calls[op], "count")
            out[f"{op}.s"] = (self.total_s[op], "s")
        for module in MODULES:
            out[f"{module}.self_s"] = (sum(
                v for op, v in self.self_s.items()
                if op.split(".")[0] == module), "s")
        return out

"""Spans at the package's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced function, wherever a module of the
package holds it under a module-level name, with a wrapper that records a
span (name, start, end, parent span, op) and, for some functions, counts
taken from the arguments and the result.  Because one layer reaches the
next through those names (``cli.pairwise_matrix``, ``gromov.solve_lp``,
``solver.LinearProgram.from_sparse``, ...), every crossing is seen.
``uninstall`` puts the originals back.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs; a dotted function is a classmethod.
TRACED = (
    ("cli", "main"),
    ("core", "parse_newick"),
    ("core", "parse_newick_file"),
    ("core", "semimetric_from_table"),
    ("treemetric", "four_point_check"),
    ("treemetric", "tree_to_semimetric"),
    ("treemetric", "robinson_foulds"),
    ("treemetric", "pd_distance"),
    ("gromov", "pairwise_matrix"),
    ("gromov", "gromov_distance"),
    ("gromov", "dinf_closed_form"),
    ("gromov", "quadrangle_feasible"),
    ("gromov", "realize_extension"),
    ("extension", "graph_metric"),
    ("solver", "LinearProgram.from_sparse"),
    ("solver", "QuadraticProgram.from_sparse"),
    ("solver", "solve_lp"),
    ("solver", "solve_qp"),
)

# Span names as reported; solve_lp is split by the mode it solves in.
SPAN_NAMES = tuple(
    f"{m}.{f}" for m, f in TRACED if f != "solve_lp"
) + ("solver.solve_lp.float", "solver.solve_lp.rational")

ROUTES = ("closed-form", "dual", "active-set", "assignment", "other")
RAISED = ("LinAlgError", "TreegromovError", "other")


def _lp_span_name(args, kwargs):
    lp = args[0] if args else kwargs.get("lp")
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None) or lp.mode
    return f"solver.solve_lp.{mode}"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, op]
        self.counts = Counter()
        self.maxima = {}
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _observe(self, name, args, kwargs, result, exc):
        c = self.counts
        if exc is not None:
            if name in ("gromov.gromov_distance", "solver.solve_qp"):
                kind = type(exc).__name__
                c[f"{name}.raised.{kind if kind in RAISED else 'other'}"] += 1
            return
        if name.startswith("solver.solve_lp") or name == "solver.solve_qp":
            base = "solver.solve_qp" if name == "solver.solve_qp" else "solver.solve_lp"
            prog = args[0] if args else next(iter(kwargs.values()))
            c[f"{base}.iterations"] += int(result.iterations)
            c[f"{base}.rows"] += int(prog.n_rows)
            if base == "solver.solve_lp" and "duality_gap" in result.certificate:
                self._max("solver.solve_lp.max_duality_gap", float(result.certificate["duality_gap"]))
            if base == "solver.solve_qp" and result.kkt_residual is not None:
                self._max("solver.solve_qp.max_kkt_residual", float(result.kkt_residual))
        elif name == "gromov.gromov_distance":
            route = result.method if result.method in ROUTES else "other"
            c[f"{name}.route.{route}"] += 1
        elif name == "treemetric.four_point_check" and not result[0]:
            c[f"{name}.witness"] += 1

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                tracer._stack.pop()
                tracer._observe(span_name, args, kwargs, None, exc)
                raise
            span[2] = perf_counter()
            tracer._stack.pop()
            tracer._observe(span_name, args, kwargs, result, None)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _modules(self):
        root = self.package.__name__
        return [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == root or key.startswith(root + "."))
        ]

    def install(self):
        for modname, fname in TRACED:
            module = getattr(self.package, modname)
            if "." in fname:
                clsname, meth = fname.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(f"{modname}.{fname}", raw.__func__))
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, fname)
            name = _lp_span_name if fname == "solve_lp" else f"{modname}.{fname}"
            wrapped = self._wrap(name, original)
            for mod in self._modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summary -----------------------------------------------------------

    def summary(self):
        """calls, busy_s and self_s per span name (self time is the span
        minus its direct children, which never overlap: one thread)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += end - start - child_time[k]
        return out

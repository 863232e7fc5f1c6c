"""LP, transportation and convex-QP solvers for the distance programs,
sized for a few hundred variables.

Every program is a gap table plus taxon weights.  The gap table g is a
symmetric n x n table with a zero diagonal and no negative entry
(|rho - rho'| in the gromov module), and the program has one pair row

    x_i + x_j >= g[i, j]    for every pair i < j

with the pairs in np.triu_indices order, stored as the arrays (i1, i2, b)
with b = g[i1, i2].  LinearProgram.from_sparse and
QuadraticProgram.from_sparse are the only constructors; they check the
table and the weights once, name the first bad entry, and store them
read-only.  from_sparse keeps its name only because the benchmark's layer
tracer wraps it by that name.  The constant vector max g meets every pair
row, so no program is ever infeasible.

solve_lp minimises sum_x c_x x_x over the pair rows and x >= 0.  Without
weights (c = 1), and for every rational program, it runs the
transportation kernel _kernels.max_transport: the LP is half the
maximum-profit transportation on g with row and column capacities c (the
proof is in the gromov module docstring).  Potentials u, v give
x = (u + v) / 2 and the flow F gives the dual y_ij = (F_ij + F_ji) / 2;
with weights, a row with b = 0 reports y = 0.  Without weights the kernel
is the Hungarian method and F a permutation matrix.  In rational mode g
and c are scaled to Python ints by the lcms of their denominators, so no
Fraction reaches the kernel or its audit; the same code runs on floats.

Float programs with weights run the dual of

    min c.x   s.t.  A x >= b,  x >= 0

with a revised primal simplex, because the dual's basis is only n x n no
matter how many rows the primal has (rows grow quadratically in the taxon
count while variables grow linearly).  The all-slack dual basis is
feasible because c >= 0, and with c >= 0 and a feasible primal the dual
is bounded.  The kernel carries the basis inverse exactly, because its
entries are 0, +-1/2 and +-1, so it solves no linear system and cannot
meet a singular one.  Its pricing threshold is core.RTOL times max|b| and
its other thresholds are relative to max c, so scaling the data by a
power of two scales the value and the argmin exactly (see
_kernels.dual_simplex).  Both routes return the certificate keys "dual"
(one entry per pair row) and "duality_gap".

Both routes certify the same kind of program, and one O(m + n) audit
judges both results by the package's one rule (core.tolerance, RTOL times
the scale with no floor): the pair rows and x >= 0 at the scale max|b|,
y >= 0 and A^T y <= c at max c (1 for unit weights), and the duality gap
|b.y - c.x| at |c.x|.  At scale 0 a check is exact, so the program of
two equal tables (b = 0) must certify with value and gap exactly 0; in
rational mode every check is exact and the gap must be zero.  The
transportation answers are audited on their integer program times
2 lcm (see _transport), which gives the same verdicts.

The quadratic solver is the dual active-set method of Goldfarb and Idnani
(1983) for strictly convex diagonal objectives sum w_j x_j^2 over the pair
rows.  With A >= 0 entrywise, raising a negative x_j to 0 keeps every row
and lowers the objective, so the optimum is >= 0 without an x >= 0 row.
It starts at the unconstrained minimiser x = 0, adds the most violated
row at each step, and carries the inverse of the working set's small
system, updated by bordering when a row joins and by a rank-one downdate
when one leaves.  A row joins only when its step direction z has
z.n_p > 0, judged relative to the row's own scale, so it is never a
combination of the working rows and the working set stays independent
with no rank checks.  Every test in the kernel is relative, so scaling b
scales the solution and changes no step.  The multipliers are solved
again on the returned working set, and the KKT residuals are audited
at the data scale s = max(max|b|, max|2wx|): stationarity, primal (rows
and x >= 0) and dual parts against RTOL * s, complementarity against
RTOL * s^2, so at s = 0 every part must be exactly zero.

A singular linear system in the QP's multiplier solve, a kernel that
stops without an optimum, or a failed audit is reported as a
TreegromovError with an instance summary, never as a bare numpy error.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _kernels
from .core import (
    MODE_FLOAT,
    MODE_RATIONAL,
    TreegromovError,
    ValidationError,
    RTOL,
    _as_integers,
    scalar_array,
    tolerance,
)

STATUS_OPTIMAL = "optimal"

BLAND_AFTER = 50


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------

def _check(ok, message):
    """Raise ValidationError naming the first entry, in row-major order,
    where the boolean array ok is False."""
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        raise ValidationError(f"{message} (entry {', '.join(map(str, bad))})")


def _weights(weights, n, mode, strict):
    """The n weights as a read-only array in the mode's type; finite in
    float mode, and > 0 if strict, else >= 0."""
    w = scalar_array(weights, mode)
    if w.shape != (n,):
        raise ValidationError(f"need {n} weights, got {w.size}")
    if mode == MODE_FLOAT:
        _check(np.isfinite(w), "weights must be finite")
    if strict:
        _check(w > 0, "weights must be strictly positive")
    else:
        _check(w >= 0, "weights must be nonnegative")
    w.flags.writeable = False
    return w


class _GapProgram:
    """Shared storage: the read-only gap table g and its pair rows
    (i1, i2, b), see the module docstring; in rational mode also
    scaled = (ints, lcm), g times the lcm of its denominators."""

    __slots__ = ("n_vars", "g", "i1", "i2", "b", "mode", "scaled")

    def _init_table(self, g, mode):
        try:
            g = scalar_array(g, mode)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"gap table must hold numbers: {exc}") from None
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError(f"gap table must be square, got shape {g.shape}")
        n = len(g)
        if mode == MODE_FLOAT:
            _check(np.isfinite(g), "gap table must be finite")
            scaled, t = None, g
        else:
            # the integers keep every comparison, at int64 speed
            scaled = _as_integers(g)
            t = scaled[0]
        _check(t == t.T, "gap table must be symmetric")
        _check(np.diagonal(t) == 0, "gap table must have a zero diagonal")
        _check(t >= 0, "gap table must be nonnegative")
        i1, i2 = np.triu_indices(n, 1)
        for name, arr in (("g", g), ("i1", i1), ("i2", i2), ("b", g[i1, i2])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_vars", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "scaled", scaled)
        return n

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_rows(self):
        return len(self.b)


class LinearProgram(_GapProgram):
    """min c.x subject to the gap table's pair rows and 0 <= x; c is None
    for unit weights."""

    __slots__ = ("c",)

    @classmethod
    def from_sparse(cls, weights, g, mode=MODE_FLOAT):
        """weights: n finite nonnegative weights, or None for unit weights;
        g: the gap table (see the module docstring)."""
        self = object.__new__(cls)
        n = self._init_table(g, mode)
        c = None if weights is None else _weights(weights, n, mode, strict=False)
        object.__setattr__(self, "c", c)
        return self

    def __repr__(self):
        return (
            f"LinearProgram({self.n_vars} vars, {self.n_rows} rows, "
            f"mode={self.mode})"
        )


class QuadraticProgram(_GapProgram):
    """min sum_j w_j x_j^2 subject to the gap table's pair rows; w finite
    and strictly positive, float mode only."""

    __slots__ = ("weights",)

    @classmethod
    def from_sparse(cls, weights, g):
        """weights: n finite positive weights, or None for unit weights;
        g: the gap table (see the module docstring)."""
        self = object.__new__(cls)
        n = self._init_table(g, MODE_FLOAT)
        w = _weights(np.ones(n) if weights is None else weights, n, MODE_FLOAT, strict=True)
        object.__setattr__(self, "weights", w)
        return self

    def __repr__(self):
        return f"QuadraticProgram({self.n_vars} vars, {self.n_rows} rows)"


class OptResult:
    """Solver outcome.

    value/argmin are in the solve's mode; kkt_residual is None for LPs.
    certificate carries the machine-checkable evidence: dual vector and
    duality gap for LPs and assignments, KKT residual components for QPs.
    """

    __slots__ = (
        "status",
        "value",
        "argmin",
        "iterations",
        "kkt_residual",
        "mode",
        "method",
        "certificate",
    )

    def __init__(
        self,
        status,
        value,
        argmin,
        iterations,
        mode,
        method,
        kkt_residual=None,
        certificate=None,
    ):
        self.status = status
        self.value = value
        self.argmin = argmin
        self.iterations = iterations
        self.mode = mode
        self.method = method
        self.kkt_residual = kkt_residual
        self.certificate = certificate or {}

    def with_updates(self, **kw) -> "OptResult":
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(kw)
        return OptResult(**fields)

    def __repr__(self):
        return (
            f"OptResult({self.status}, value={self.value}, "
            f"iterations={self.iterations}, method={self.method})"
        )


def _scatter_rows(i1, i2, y, n_vars):
    """A^T y for the pair rows, in y's dtype (Fractions stay exact)."""
    out = np.zeros(n_vars, dtype=y.dtype)
    np.add.at(out, i1, y)
    np.add.at(out, i2, y)
    return out


def _instance(b, n_vars, scale=1):
    """Instance summary for error messages; b is scale times the data."""
    top = np.abs(b).max(initial=0)
    if scale != 1:
        top = Fraction(top, scale)
    return f"rows={len(b)}, vars={n_vars}, max|b|={float(top):.6g}"


# ---------------------------------------------------------------------------
# The norm-1 audit, shared by both solve_lp routes
# ---------------------------------------------------------------------------

def _certify(route, i1, i2, b, c, x, y, mode, scales=(1, 1)):
    """Audit x and y as optimal primal and dual solutions of

        min c.x  s.t.  x[i1] + x[i2] >= b,  x >= 0

    in O(m + n), with c None for unit weights (value x.sum()).  The checks
    run in this order: the pair rows, x >= 0, y >= 0, A^T y <= c and the
    duality gap |b.y - value| (see the module docstring for the
    tolerances).  In float mode the entries of x and y below zero, within
    tolerance, are set to zero before the later checks see them.

    In rational mode the program may come scaled by scales = (sx, sy) > 0:
    b and x are sx times the data, c and y are sy times it.  Every check
    is exact, and positive scaling preserves each verdict, so this is the
    same audit; _transport uses it to audit on integers.  The value,
    the gap and every amount in a message are divided back into data
    units.  Returns (x, y, value, gap); x and y keep their types as given,
    value and gap are Fractions in rational mode.  A failed check raises
    TreegromovError.
    """
    n = len(x)
    sx, sy = scales
    instance = _instance(b, n, sx)
    if mode == MODE_FLOAT:
        xs, ys = x, y
    else:
        xs, ys = np.array(x, dtype=object), np.array(y, dtype=object)
    tol = tolerance(b, mode=mode)
    ytol = tolerance(1.0 if c is None else c, mode=mode)

    def units(amount, scale):
        return amount if scale == 1 else Fraction(amount, scale)

    # argmax and argmin pick a NaN first, and "not <= tol" fails on it
    short = b - (xs[i1] + xs[i2])
    k = int(np.argmax(short)) if len(b) else -1
    if k >= 0 and not short[k] <= tol:
        raise TreegromovError(
            f"{route} breaks the pair row ({i1[k]},{i2[k]}) by {units(short[k], sx)}; "
            f"instance: {instance}"
        )
    k = int(np.argmin(xs)) if n else -1
    if k >= 0 and not -xs[k] <= tol:
        raise TreegromovError(
            f"{route} puts x[{k}] = {units(xs[k], sx)} below zero; instance: {instance}"
        )
    k = int(np.argmin(ys)) if len(b) else -1
    if k >= 0 and not -ys[k] <= ytol:
        raise TreegromovError(
            f"{route} dual puts y[{k}] = {units(ys[k], sy)} below zero; instance: {instance}"
        )
    if mode == MODE_FLOAT:
        x = xs = np.maximum(xs, 0.0)
        y = ys = np.maximum(ys, 0.0)
    over = _scatter_rows(i1, i2, ys, n) - (1 if c is None else c)
    k = int(np.argmax(over)) if n else -1
    if k >= 0 and not over[k] <= ytol:
        raise TreegromovError(
            f"{route} dual breaks A^T y <= c at x[{k}] by {units(over[k], sy)}; "
            f"instance: {instance}"
        )
    if mode == MODE_FLOAT:
        value = float(xs.sum()) if c is None else float(np.dot(c, xs))
        gap = abs(float(np.dot(b, ys)) - value)
        ok = gap <= tolerance(value)  # NaN fails
    else:
        if c is None:
            value = sum(xs.tolist())
        else:
            value = sum(ci * xi for ci, xi in zip(c.tolist(), xs.tolist()))
        gap = abs(sum(bk * yk for bk, yk in zip(b.tolist(), ys.tolist()) if yk) - value)
        ok = gap == 0
        value, gap = Fraction(value, sx * sy), Fraction(gap, sx * sy)
    if not ok:
        raise TreegromovError(
            f"{route} duality gap {gap} exceeds tolerance; instance: {instance}"
        )
    return x, y, value, gap


# ---------------------------------------------------------------------------
# Float LP, dual route
# ---------------------------------------------------------------------------

def _lp_float_dual(i1, i2, b, c):
    """Primal x and dual y read off the simplex's final basis, y as solved
    (solve_lp's audit judges its sign).  Requires c >= 0."""
    n = len(c)
    m = len(b)
    max_iter = 20000 + 100 * n
    # pricing at RTOL * max|b|, the one relative tolerance of the package
    status, basis, iters, xB, pi, _ = _kernels.dual_simplex(
        i1, i2, b, c, BLAND_AFTER, RTOL, max_iter
    )
    if status == _kernels.LP_ITER_LIMIT:
        raise TreegromovError(
            f"simplex iteration limit ({max_iter}) hit; instance: {_instance(b, n)}"
        )
    if status == _kernels.LP_DUAL_UNBOUNDED:
        raise TreegromovError(
            f"simplex found the dual unbounded, which a pair-row program "
            f"cannot be; instance: {_instance(b, n)}"
        )
    y = np.zeros(m)
    pair = basis < m
    y[basis[pair]] = xB[pair]
    return {"iterations": int(iters), "x": -pi, "y": y}


# ---------------------------------------------------------------------------
# solve_lp
# ---------------------------------------------------------------------------

def solve_lp(lp: LinearProgram) -> OptResult:
    """Globally solve the LP and audit its primal and dual solutions (see
    the module docstring): as a transportation problem (method
    "assignment") in rational mode or without weights, else with the
    dual-route simplex (method "dual")."""
    if lp.mode == MODE_RATIONAL or lp.c is None:
        return _transport(lp)
    out = _lp_float_dual(lp.i1, lp.i2, lp.b, lp.c)
    x, y, value, gap = _certify("simplex", lp.i1, lp.i2, lp.b, lp.c, out["x"], out["y"], MODE_FLOAT)
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        out["iterations"],
        MODE_FLOAT,
        "dual",
        certificate={"dual": y, "duality_gap": gap},
    )


def _transport(lp):
    """Run _kernels.max_transport on the gap table with the weights as
    capacities (1 without weights), and audit x = (u + v) / 2 and
    y = (F_ij + F_ji) / 2 on the pair rows, y = 0 on a weighted program's
    rows with b = 0.  In rational mode g and b are Lb times the data and
    cap and c are Lc times it, all integers, Lb and Lc the lcms of their
    denominators; the audit runs on the program times (2 Lb, 2 Lc), where
    b' = 2b, x' = u + v, c' = 2c and y' = F_ij + F_ji are integers, and
    only value, argmin and dual become Fractions.
    """
    n, i1, i2, mode = lp.n_vars, lp.i1, lp.i2, lp.mode
    if mode == MODE_FLOAT:
        g, c = lp.g, lp.c
    else:
        g, lb = lp.scaled
        c, lc = (np.ones(n, dtype=np.int64), 1) if lp.c is None else _as_integers(lp.c)
    b = g[i1, i2]
    sent, u, v, steps = _kernels.max_transport(g.tolist(), [1] * n if c is None else c.tolist())
    flow = np.zeros((n, n), dtype=np.int64 if mode == MODE_FLOAT else object)
    for j, col in enumerate(sent):
        for i, f in col.items():
            flow[i, j] = f
    y2 = flow[i1, i2] + flow[i2, i1]
    if lp.c is not None:
        y2[b == 0] = 0
    if mode == MODE_FLOAT:
        x = (np.array(u, dtype=np.float64) + np.array(v, dtype=np.float64)) / 2
        x, y, value, gap = _certify("assignment", i1, i2, b, c, x, y2 / 2, mode)
    else:
        x2 = np.array([p + q for p, q in zip(u, v)], dtype=object)
        _, _, value, gap = _certify(
            "assignment", i1, i2, 2 * b, 2 * c, x2, y2, mode, scales=(2 * lb, 2 * lc)
        )
        x = np.array([Fraction(a, 2 * lb) for a in x2.tolist()], dtype=object)
        y = [Fraction(h, 2 * lc) for h in y2.tolist()]
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        steps,
        mode,
        "assignment",
        certificate={"dual": y, "duality_gap": gap},
    )


# ---------------------------------------------------------------------------
# solve_qp
# ---------------------------------------------------------------------------

def solve_qp(qp: QuadraticProgram, mode: str = MODE_FLOAT) -> OptResult:
    """Globally solve the strictly convex QP by the dual active-set method
    of Goldfarb and Idnani (see _kernels.active_set_qp).

    Every QP is feasible (see the module docstring), so the status is always
    optimal.  The kernel starts at the unconstrained minimiser x = 0 and
    adds violated rows until none is left.  Its own multipliers stay
    inside it: the multipliers are solved again on the returned working
    set, and the KKT audit judges x against them.  Entries of the kernel's x below zero
    count in the primal KKT part, and the returned argmin is x clipped at
    zero, which keeps every pair row."""
    if mode != MODE_FLOAT:
        raise ValidationError("quadratic solves are float-only")
    i1, i2, b = qp.i1, qp.i2, qp.b
    n = qp.n_vars
    w = qp.weights
    max_iter = 1000 + 20 * (len(b) + n)
    # feasibility at 1e-11 * max|b|, a hundredth of RTOL, so that the rows
    # the kernel leaves pass the KKT audit's primal part with room to spare
    status, x, work, iters = _kernels.active_set_qp(i1, i2, b, w, 1e-11, max_iter)
    if status == _kernels.QP_ITER_LIMIT:
        raise TreegromovError(
            f"active-set QP iteration limit ({max_iter}) hit; instance: {_instance(b, n)}"
        )
    if status == _kernels.QP_NO_STEP:
        raise TreegromovError(
            f"active-set QP found a row with no finite step, which a pair-row "
            f"program cannot have; instance: {_instance(b, n)}"
        )
    x = np.asarray(x, dtype=np.float64)
    work = np.asarray(work, dtype=np.int64)
    # multipliers on the working set; zero elsewhere
    mu = np.zeros(len(b))
    if work.size:
        k = work.size
        AW = np.zeros((k, n))
        AW[np.arange(k), i1[work]] = 1.0
        AW[np.arange(k), i2[work]] = 1.0
        AWD = AW / w[None, :]
        G = AWD @ AW.T
        try:
            nu = 2.0 * np.linalg.solve(G, b[work])
        except np.linalg.LinAlgError as exc:
            raise TreegromovError(
                f"active-set QP multipliers hit a singular linear system ({exc}); "
                f"instance: {_instance(b, n)}"
            ) from exc
        mu[work] = nu
    grad = 2.0 * w * x
    stationarity = float(np.abs(grad - _scatter_rows(i1, i2, mu, n)).max(initial=0.0))
    resid = x[i1] + x[i2] - b
    primal = float(np.maximum(-np.concatenate([resid, x]), 0.0).max(initial=0.0))
    dual = float(np.maximum(-mu, 0.0).max(initial=0.0))
    comp = float(np.abs(mu * resid).max(initial=0.0))
    parts = {"stationarity": stationarity, "primal": primal, "dual": dual, "complementarity": comp}
    # each part at the data scale s; complementarity is a product of two
    s = max(float(np.abs(b).max(initial=0.0)), float(np.abs(grad).max(initial=0.0)))
    scale = {k: s * s if k == "complementarity" else s for k in parts}
    for k, v in parts.items():
        if not v <= tolerance(scale[k]):  # NaN fails
            raise TreegromovError(
                f"active-set QP failed its KKT audit ({k} {v:.3e} at data "
                f"scale {s:.3e}); instance: {_instance(b, n)}"
            )
    # a part at scale 0 passed as exactly zero
    residual = max(v / scale[k] if scale[k] else 0.0 for k, v in parts.items())
    x = np.maximum(x, 0.0)
    value = float(np.dot(w, x * x))
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        int(iters),
        MODE_FLOAT,
        "active-set",
        kkt_residual=residual,
        certificate={"multipliers": mu, "kkt": parts},
    )

"""Dense LP, assignment and convex-QP solvers sized for a few hundred
variables.

A program is a set of pair rows, stored as arrays with one entry per row:

    x[i1[r]] + x[i2[r]] >= b[r],    i1[r] != i2[r]

which is every row the distance computations build.
LinearProgram.from_sparse and QuadraticProgram.from_sparse are the only
constructors; they validate the arrays in vectorised checks and store them
read-only.  The constant vector max(b, 0) meets every pair row, so no
program is ever infeasible.

In float mode the linear solver solves the dual of

    min c.x   s.t.  A x >= b,  x >= 0

with a revised primal simplex, because the dual's basis is only n x n no
matter how many rows the primal has (rows here grow quadratically in the
taxon count while variables grow linearly).  The all-slack dual basis is
feasible exactly when c >= 0, so solve_lp accepts nonnegative objectives
only; every program this package assembles has one, and with c >= 0 and a
feasible primal the dual is bounded.  The kernel carries the basis
inverse exactly, because its entries are 0, +-1/2 and +-1, so it solves
no linear system and cannot meet a singular one.  Its pricing threshold
is core.RTOL times max|b| and its other thresholds are relative to
max c, so scaling the data by a power of two scales the value and the
argmin exactly (see _kernels.dual_simplex).

Every exact solve, and the float one without taxon weights, runs the
transportation kernel _kernels.max_transport instead.  Rows with b <= 0
are implied by x >= 0 and a pair's rows by its largest b, so the LP is

    min sum_x c_x x_x   s.t.  x_i + x_j >= g[i, j]  (i < j),  x >= 0

on the symmetric table g of the largest b on each pair (0 without a
positive one), which is half the maximum-profit transportation on g with
row and column capacities c (the proof is in the gromov module
docstring).  Potentials u, v give x = (u + v) / 2 and the flow F gives
the dual y_ij = (F_ij + F_ji) / 2 on the first row attaining g[i, j].
solve_assignment takes g itself with unit capacities, where the kernel is
the Hungarian method and F a permutation matrix; solve_lp in rational
mode builds g from the rows.  In rational mode g and c are scaled to
Python ints by the lcms of their denominators, so no Fraction reaches the
kernel or its audit; the same code runs on floats.  Both return solve_lp's
certificate keys ("dual" with one entry per pair row, "duality_gap").

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
(1983) for strictly convex diagonal objectives sum w_j x_j^2 over pair
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

import numbers
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
    as_scalar,
    check_mode,
    scalar_array,
    tolerance,
)

STATUS_OPTIMAL = "optimal"

BLAND_AFTER = 50


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------

def _scalars(values, mode):
    """1-D array of values in the mode's type: float64, or Fractions in an
    object array (as_scalar rejects floats there)."""
    if mode == MODE_FLOAT:
        return np.array(values, dtype=np.float64)
    return np.array([as_scalar(x, mode) for x in values], dtype=object)


def _check(ok, message):
    """Raise ValidationError naming the first entry where ok is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValidationError(f"{message} (entry {bad[0]})")


def _indices(a):
    """The 1-D index array a as int64; ValidationError at its first entry
    that is not an integer, or is one too large for int64."""
    if a.dtype.kind not in "iu":
        values = a.tolist()
        _check(
            np.array(
                [isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values],
                dtype=bool,
            ),
            "row indices must be integers",
        )
        _check(np.array([abs(v) < 2**63 for v in values], dtype=bool), "variable index out of range")
    return a.astype(np.int64)


class _RowProgram:
    """Shared storage: read-only pair-row arrays (i1, i2, b)."""

    __slots__ = ("n_vars", "i1", "i2", "b", "mode")

    def _init_rows(self, n_vars, rows, mode):
        check_mode(mode)
        try:
            i1, i2, b = (np.array(a) for a in rows)
            b = _scalars(b, mode)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"rows must be three arrays (i1, i2, b): {exc}") from None
        if i1.ndim != 1 or len({a.shape for a in (i1, i2, b)}) != 1:
            raise ValidationError("row arrays must be 1-D and of equal length")
        i1, i2 = _indices(i1), _indices(i2)
        _check((0 <= i1) & (i1 < n_vars) & (0 <= i2) & (i2 < n_vars),
               "variable index out of range")
        _check(i1 != i2, "variable appears twice in one row")
        if mode == MODE_FLOAT:
            _check(np.isfinite(b), "rhs must be finite")
        for name, arr in (("i1", i1), ("i2", i2), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_vars", int(n_vars))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_rows(self):
        return len(self.b)


class LinearProgram(_RowProgram):
    """min c.x subject to the stored pair rows and 0 <= x."""

    __slots__ = ("c",)

    @classmethod
    def from_sparse(cls, objective, rows, mode=MODE_FLOAT):
        """rows: (i1, i2, b), see the module docstring."""
        self = object.__new__(cls)
        c = _scalars(objective, mode)
        if mode == MODE_FLOAT:
            _check(np.isfinite(c), "objective must be finite")
        self._init_rows(len(c), rows, mode)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        return self

    def __repr__(self):
        return (
            f"LinearProgram({self.n_vars} vars, {self.n_rows} rows, "
            f"mode={self.mode})"
        )


class QuadraticProgram(_RowProgram):
    """min sum_j w_j x_j^2 subject to the stored pair rows; w finite and
    strictly positive, float mode only."""

    __slots__ = ("weights",)

    @classmethod
    def from_sparse(cls, weights, rows):
        """rows: (i1, i2, b), see the module docstring."""
        self = object.__new__(cls)
        w = _scalars(weights, MODE_FLOAT)
        _check(np.isfinite(w), "quadratic weights must be finite")
        _check(w > 0, "quadratic weights must be strictly positive")
        self._init_rows(len(w), rows, MODE_FLOAT)
        w.flags.writeable = False
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
# The norm-1 audit, shared by solve_lp and solve_assignment
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

def solve_lp(lp: LinearProgram, mode: str | None = None) -> OptResult:
    """Globally solve the LP and audit its primal and dual solutions (see
    the module docstring): in float mode with the dual-route simplex
    (method "dual"), in rational mode as a transportation problem on the
    lcm-scaled integers (method "assignment").

    mode defaults to the program's own mode; a rational program may be
    solved in float mode (exact data converted down), never the reverse.
    The objective must be nonnegative; a negative entry is a
    ValidationError in both modes.
    """
    if mode is None:
        mode = lp.mode
    check_mode(mode)
    if mode == MODE_RATIONAL and lp.mode == MODE_FLOAT:
        raise ValidationError("cannot solve a float program in rational mode")
    if (lp.c < 0).any():
        raise ValidationError("solve_lp requires a nonnegative objective")
    if mode == MODE_RATIONAL:
        return _lp_transport(lp)

    i1, i2 = lp.i1, lp.i2
    b = np.asarray(lp.b, dtype=np.float64)
    c = np.asarray(lp.c, dtype=np.float64)
    out = _lp_float_dual(i1, i2, b, c)
    x, y, value, gap = _certify("simplex", i1, i2, b, c, out["x"], out["y"], mode)
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        out["iterations"],
        mode,
        "dual",
        certificate={"dual": y, "duality_gap": gap},
    )


# ---------------------------------------------------------------------------
# Norm 1 as a transportation problem: solve_assignment and rational solve_lp
# ---------------------------------------------------------------------------

def _transport(g, cap, rows, carry, c, mode, scales=(1, 1)):
    """Run _kernels.max_transport on the table g (a list of row lists) with
    the capacities cap, and audit x = (u + v) / 2 and, on the rows carry,
    y = (F_ij + F_ji) / 2 (0 elsewhere) on the pair rows (i1, i2, b) with
    costs c (None for unit costs).  In float mode every cap is 1.  In
    rational mode g and b are Lb times the data and cap and c are Lc times
    it, all integers, for scales = (Lb, Lc); the audit runs on the program
    times (2 Lb, 2 Lc), where b' = 2b, x' = u + v, c' = 2c and y' = F_ij +
    F_ji are integers, and only value, argmin and dual become Fractions.
    """
    i1, i2, b = rows
    n = len(g)
    sent, u, v, steps = _kernels.max_transport(g, cap)
    flow = np.zeros((n, n), dtype=np.int64 if mode == MODE_FLOAT else object)
    for j, col in enumerate(sent):
        for i, f in col.items():
            flow[i, j] = f
    y2 = np.zeros(len(b), dtype=flow.dtype)
    y2[carry] = flow[i1[carry], i2[carry]] + flow[i2[carry], i1[carry]]
    if mode == MODE_FLOAT:
        x = (np.array(u, dtype=np.float64) + np.array(v, dtype=np.float64)) / 2
        x, y, value, gap = _certify("assignment", i1, i2, b, c, x, y2 / 2, mode)
    else:
        lb, lc = scales
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


def _lp_transport(lp):
    """The rational LP as a transportation problem (see the module
    docstring) on b and c times the lcms Lb and Lc of their denominators;
    the first row that attains a positive g_ij carries its pair's dual."""
    n = lp.n_vars
    b, lb = _as_integers(lp.b)
    c, lc = _as_integers(lp.c)
    g = [[0] * n for _ in range(n)]
    first = [[-1] * n for _ in range(n)]
    for r, (p, q, br) in enumerate(zip(lp.i1.tolist(), lp.i2.tolist(), b.tolist())):
        if br > g[p][q]:
            g[p][q] = g[q][p] = br
            first[p][q] = first[q][p] = r
    carry = [r for p, row in enumerate(first) for r in row[p + 1 :] if r >= 0]
    return _transport(
        g, c.tolist(), (lp.i1, lp.i2, b), np.array(carry, dtype=np.int64), c,
        MODE_RATIONAL, scales=(lb, lc),
    )


def solve_assignment(g, mode: str = MODE_FLOAT) -> OptResult:
    """min sum_x x_x subject to x_i + x_j >= g[i, j] for every pair i < j
    and x >= 0, solved as half a maximum-weight assignment on g.

    g is a symmetric n x n table with a zero diagonal and nonnegative
    entries.  The assignment potentials u, v give x = (u + v) / 2, and the
    permutation matrix P gives the dual y_ij = (P_ij + P_ji) / 2, one entry
    per pair row in np.triu_indices order (see the module docstring).
    Both pass solve_lp's audit of the same program with unit weights; a
    failed check raises TreegromovError.  In rational mode the kernel runs
    on g times the lcm of its denominators (see _transport).
    """
    check_mode(mode)
    g = scalar_array(g, mode)
    n = len(g)
    if g.shape != (n, n):
        raise ValidationError(f"gap table must be square, got shape {g.shape}")
    if mode == MODE_FLOAT and not np.isfinite(g).all():
        raise ValidationError("gap table must be finite")
    den = 1
    if mode == MODE_RATIONAL:
        g, den = _as_integers(g)
    if (g != g.T).any() or (g.diagonal() != 0).any() or (g < 0).any():
        raise ValidationError(
            "gap table must be symmetric and nonnegative with a zero diagonal"
        )
    iu, ju = np.triu_indices(n, 1)
    ones = None if mode == MODE_FLOAT else np.ones(n, dtype=np.int64)
    return _transport(
        g.tolist(), [1] * n, (iu, ju, g[iu, ju]), slice(None), ones, mode, scales=(den, 1)
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

"""Dense LP, assignment and convex-QP solvers sized for a few hundred
variables.

A program is stored as arrays, one entry per constraint row:

    v1[r] * x[i1[r]] + v2[r] * x[i2[r]] >= b[r],    i2[r] = -1 for one entry

with coefficients +-1 (the sparse kernels exploit that structure; v2 is
stored as 0 where i2 = -1).  LinearProgram.from_sparse and
QuadraticProgram.from_sparse are the only constructors; they validate the
arrays in vectorised checks and store them read-only.  The exact simplex
reads them as Python lists of Fractions.

The linear solver solves the dual of

    min c.x   s.t.  A x >= b,  x >= 0

with a revised primal simplex, because the dual's basis is only n x n no
matter how many rows the primal has (rows here grow quadratically in the
taxon count while variables grow linearly).  The all-slack dual basis is
feasible exactly when c >= 0, so solve_lp accepts nonnegative objectives
only; every program this package assembles has one.  Exact-rational solves
follow the same route with Fraction arithmetic and Bland's rule throughout.

The uniform-weight pair-row LP

    min sum_x x_x   s.t.  x_i + x_j >= g[i, j]  (i < j),  x >= 0

on a symmetric table g with a zero diagonal is half the maximum-weight
assignment on g (the proof is in the gromov module docstring).
solve_assignment takes g itself, runs the O(n^3) Hungarian kernel
(shortest augmenting paths; the same code on floats and on Fractions, so
the rational route does no simplex pivoting), and returns x = (u + v) / 2
from the assignment potentials with the dual y_ij = (P_ij + P_ji) / 2 from
the permutation.  The certificate keys match solve_lp's ("dual" with one
entry per pair row, "duality_gap"), and the audit is O(n^2).

The quadratic solver is a primal active-set method for strictly convex
diagonal objectives sum w_j x_j^2 over rows whose coefficients are all +1.
With A >= 0 entrywise, raising a negative x_j to 0 keeps every row and
lowers the objective, so the optimum is >= 0 without an x >= 0 row, and
the constant vector max(b, 0) meets every row: a QP is never infeasible.
Working-set rows stay linearly independent automatically (a blocking row
has a.p != 0 while working rows have a.p == 0), so the small KKT systems
never need rank checks.  Its KKT residuals are audited relative to the data
scale s = max(1, max|b|, max|2wx|): stationarity, primal (rows and x >= 0)
and dual parts against KKT_TOL * s, complementarity against KKT_TOL * s^2.

A singular linear system inside either float solver, or a failed KKT audit,
is reported as a TreegromovError with an instance summary, never as a bare
numpy error.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import _kernels
from .core import (
    MODE_FLOAT,
    MODE_RATIONAL,
    TreegromovError,
    ValidationError,
    as_scalar,
    check_mode,
    scalar_array,
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"

FEAS_ATOL = 1e-9
GAP_RTOL = 1e-8
KKT_TOL = 1e-9
PIVOT_TOL = 1e-9
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


class _RowProgram:
    """Shared storage: read-only row arrays (i1, v1, i2, v2, b)."""

    __slots__ = ("n_vars", "i1", "v1", "i2", "v2", "b", "mode")

    def _init_rows(self, n_vars, rows, mode):
        check_mode(mode)
        try:
            i1, v1, i2, v2, b = (np.array(a) for a in rows)
            index_kinds = {a.dtype.kind for a in (i1, i2) if a.size}
            v1 = v1.astype(np.float64)
            v2 = v2.astype(np.float64)
            b = _scalars(b, mode)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"rows must be five arrays (i1, v1, i2, v2, b): {exc}"
            ) from None
        if i1.ndim != 1 or len({a.shape for a in (i1, v1, i2, v2, b)}) != 1:
            raise ValidationError("row arrays must be 1-D and of equal length")
        if not index_kinds <= {"i", "u"}:
            raise ValidationError("row indices must be integers")
        i1, i2 = i1.astype(np.int64), i2.astype(np.int64)
        two = i2 >= 0
        v2 = np.where(two, v2, 0.0)
        _check((0 <= i1) & (i1 < n_vars) & (-1 <= i2) & (i2 < n_vars),
               "variable index out of range")
        _check(i1 != i2, "variable appears twice in one row")
        _check((np.abs(v1) == 1) & ((np.abs(v2) == 1) | ~two), "coefficients must be +-1")
        if mode == MODE_FLOAT:
            _check(np.isfinite(b), "rhs must be finite")
        for name, arr in (("i1", i1), ("v1", v1), ("i2", i2), ("v2", v2), ("b", b)):
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
    """min c.x subject to the stored rows and 0 <= x."""

    __slots__ = ("c",)

    @classmethod
    def from_sparse(cls, objective, rows, mode=MODE_FLOAT):
        """rows: (i1, v1, i2, v2, b), see the module docstring."""
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
    """min sum_j w_j x_j^2 subject to the stored rows; w finite and
    strictly positive, every row coefficient +1, float mode only."""

    __slots__ = ("weights",)

    @classmethod
    def from_sparse(cls, weights, rows):
        self = object.__new__(cls)
        w = _scalars(weights, MODE_FLOAT)
        _check(np.isfinite(w), "quadratic weights must be finite")
        _check(w > 0, "quadratic weights must be strictly positive")
        self._init_rows(len(w), rows, MODE_FLOAT)
        _check((self.v1 == 1) & ((self.v2 == 1) | (self.i2 < 0)),
               "quadratic program coefficients must be +1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        return self

    def __repr__(self):
        return f"QuadraticProgram({self.n_vars} vars, {self.n_rows} rows)"


class OptResult:
    """Solver outcome.

    value/argmin are in the solve's mode; kkt_residual is None for LPs.
    certificate carries the machine-checkable evidence: dual vector and
    duality gap for optimal LPs, a Farkas ray for infeasible ones, KKT
    residual components for QPs.
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
        if self.status != STATUS_OPTIMAL:
            return f"OptResult({self.status}, method={self.method})"
        return (
            f"OptResult(optimal, value={self.value}, "
            f"iterations={self.iterations}, method={self.method})"
        )


# ---------------------------------------------------------------------------
# Row arithmetic helpers
# ---------------------------------------------------------------------------

def _rows_in_mode(prog, mode):
    """The stored rows: float64 arrays in float mode, Python lists in
    rational mode (values as Fractions, so the exact simplex never divides
    two ints)."""
    i1, v1, i2, v2, b = prog.i1, prog.v1, prog.i2, prog.v2, prog.b
    if mode == MODE_FLOAT:
        return i1, v1, i2, v2, np.asarray(b, dtype=np.float64)
    v1 = [Fraction(v) for v in v1.tolist()]
    v2 = [Fraction(v) for v in v2.tolist()]
    return i1.tolist(), v1, i2.tolist(), v2, b.tolist()


def _scatter_rows(i1, v1, i2, v2, y, n_vars):
    """A^T y for the sparse row encoding."""
    out = np.zeros(n_vars)
    np.add.at(out, i1, v1 * y)
    second = i2 >= 0
    np.add.at(out, i2[second], v2[second] * y[second])
    return out


# ---------------------------------------------------------------------------
# Float LP, dual route
# ---------------------------------------------------------------------------

def _lp_float_dual(i1, v1, i2, v2, b, c):
    """Returns a dict with status plus primal/dual data.  Requires c >= 0."""
    n = len(c)
    m = len(b)
    c = np.asarray(c, dtype=np.float64)
    ci1 = np.concatenate([i1, np.arange(n, dtype=np.int64)])
    cv1 = np.concatenate([v1, np.ones(n)])
    ci2 = np.concatenate([i2, np.full(n, -1, dtype=np.int64)])
    cv2 = np.concatenate([v2, np.zeros(n)])
    g = np.concatenate([-b, np.zeros(n)])
    max_iter = 20000 + 100 * n
    status, basis, iters, ray_col, ray_d = _kernels.dual_simplex(
        ci1, cv1, ci2, cv2, g, c, BLAND_AFTER, PIVOT_TOL, max_iter
    )
    if status == _kernels.LP_ITER_LIMIT:
        raise TreegromovError(
            f"simplex iteration limit ({max_iter}) hit on {m} rows x {n} vars"
        )
    basis = np.asarray(basis, dtype=np.int64)
    B = _kernels.dense_basis(ci1, cv1, ci2, cv2, basis, n)
    if status == _kernels.LP_DUAL_UNBOUNDED:
        ray = np.zeros(m + n)
        ray[ray_col] = 1.0
        for t in range(n):
            ray[basis[t]] -= ray_d[t]
        ray_y = np.maximum(ray[:m], 0.0)
        return {"status": STATUS_INFEASIBLE, "iterations": int(iters), "farkas": ray_y}
    xB = np.linalg.solve(B, c)
    pi = np.linalg.solve(B.T, g[basis])
    x = -pi
    y = np.zeros(m)
    for t in range(n):
        if basis[t] < m:
            y[basis[t]] = xB[t]
    y = np.maximum(y, 0.0)
    return {
        "status": STATUS_OPTIMAL,
        "iterations": int(iters),
        "x": x,
        "y": y,
        "primal_value": float(np.dot(c, np.maximum(x, 0.0))),
        "dual_value": float(np.dot(b, y)),
    }


# ---------------------------------------------------------------------------
# Rational LP (dual route, Bland's rule, exact arithmetic)
# ---------------------------------------------------------------------------

def _frac_solve(mat, rhs):
    """Exact Gaussian elimination; mat is a list of Fraction rows."""
    n = len(rhs)
    M = [list(mat[r]) + [rhs[r]] for r in range(n)]
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv < 0:
            raise TreegromovError("singular basis in exact simplex")
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        if inv != 1:
            M[col] = [x / inv for x in M[col]]
        prow = M[col]
        for r in range(n):
            f = M[r][col]
            if r != col and f != 0:
                M[r] = [a - f * p for a, p in zip(M[r], prow)]
    return [M[r][n] for r in range(n)]


def _lp_rational_dual(i1, v1, i2, v2, b, c):
    """Exact mirror of _lp_float_dual; Bland's rule from the start."""
    n = len(c)
    m = len(b)
    zero = Fraction(0)
    ci1 = list(i1) + list(range(n))
    cv1 = list(v1) + [Fraction(1)] * n
    ci2 = list(i2) + [-1] * n
    cv2 = list(v2) + [zero] * n
    g = [-x for x in b] + [zero] * n
    ncol = m + n
    basis = list(range(m, ncol))
    in_basis = [False] * ncol
    for col in basis:
        in_basis[col] = True
    max_iter = 20000 + 100 * n

    for it in range(1, max_iter + 1):
        B = [[zero] * n for _ in range(n)]
        for t, col in enumerate(basis):
            B[ci1[col]][t] = cv1[col]
            if ci2[col] >= 0:
                B[ci2[col]][t] = cv2[col]
        xB = _frac_solve(B, list(c))
        Bt = [[B[r][t] for r in range(n)] for t in range(n)]
        pi = _frac_solve(Bt, [g[col] for col in basis])
        entering = -1
        for j in range(ncol):
            if in_basis[j]:
                continue
            red = g[j] - cv1[j] * pi[ci1[j]]
            if ci2[j] >= 0:
                red -= cv2[j] * pi[ci2[j]]
            if red < 0:
                entering = j
                break
        if entering < 0:
            x = [-p for p in pi]
            y = [zero] * m
            for t, col in enumerate(basis):
                if col < m:
                    y[col] = xB[t]
            value = sum(ci * xi for ci, xi in zip(c, x))
            dual_value = sum(bi * yi for bi, yi in zip(b, y))
            return {
                "status": STATUS_OPTIMAL,
                "iterations": it,
                "x": x,
                "y": y,
                "primal_value": value,
                "dual_value": dual_value,
            }
        a = [zero] * n
        a[ci1[entering]] = cv1[entering]
        if ci2[entering] >= 0:
            a[ci2[entering]] += cv2[entering]
        d = _frac_solve(B, a)
        theta = None
        for t in range(n):
            if d[t] > 0:
                r = xB[t] / d[t]
                if theta is None or r < theta:
                    theta = r
        if theta is None:
            ray = [zero] * ncol
            ray[entering] = Fraction(1)
            for t in range(n):
                ray[basis[t]] -= d[t]
            ray_y = [x if x > 0 else zero for x in ray[:m]]
            return {
                "status": STATUS_INFEASIBLE,
                "iterations": it,
                "farkas": ray_y,
            }
        leave = -1
        leave_var = ncol
        for t in range(n):
            if d[t] > 0 and xB[t] / d[t] == theta and basis[t] < leave_var:
                leave_var = basis[t]
                leave = t
        in_basis[basis[leave]] = False
        in_basis[entering] = True
        basis[leave] = entering
    raise TreegromovError(f"exact simplex iteration limit ({max_iter}) hit")


# ---------------------------------------------------------------------------
# solve_lp
# ---------------------------------------------------------------------------

def _instance(b, n_vars):
    return f"rows={len(b)}, vars={n_vars}, max|b|={float(np.abs(b).max(initial=0.0)):.6g}"


@contextmanager
def _singular_as_error(route, b, n_vars):
    """Re-raise a LinAlgError from the float kernels or the certificate
    solves as a TreegromovError carrying an instance summary."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise TreegromovError(
            f"{route} hit a singular linear system ({exc}); instance: "
            f"{_instance(b, n_vars)}"
        ) from exc


def _check_farkas(i1, v1, i2, v2, b, ray, n_vars):
    """Audit a float Farkas ray for A x >= b, x >= 0: ray >= 0,
    A^T ray <= 0 and b.ray > 0."""
    back = _scatter_rows(i1, v1, i2, v2, ray, n_vars)
    if (ray < 0).any() or back.max(initial=0.0) > 1e-7 or float(np.dot(b, ray)) <= 0:
        raise TreegromovError("invalid Farkas certificate produced")


def _verify_primal_float(i1, v1, i2, v2, b, x, n_vars):
    x = np.maximum(x, 0.0)
    vals = _kernels.row_dot(i1, v1, i2, v2, x)
    worst = float((b - vals).max(initial=0.0))
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    if not worst <= FEAS_ATOL * scale:  # NaN fails
        raise TreegromovError(
            f"solver produced an infeasible point (violation {worst:.3e}); "
            f"instance: {_instance(b, n_vars)}"
        )
    return x


def solve_lp(lp: LinearProgram, mode: str | None = None) -> OptResult:
    """Globally solve the LP with the dual-route simplex.

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
        raise ValidationError(
            "solve_lp requires a nonnegative objective (dual-route simplex)"
        )

    i1, v1, i2, v2, b = _rows_in_mode(lp, mode)
    if mode == MODE_RATIONAL:
        out = _lp_rational_dual(i1, v1, i2, v2, b, lp.c.tolist())
    else:
        c = np.asarray(lp.c, dtype=np.float64)
        with _singular_as_error("simplex", b, lp.n_vars):
            out = _lp_float_dual(i1, v1, i2, v2, b, c)
    if out["status"] == STATUS_INFEASIBLE:
        ray = out["farkas"]
        if mode == MODE_FLOAT:
            _check_farkas(i1, v1, i2, v2, b, ray, lp.n_vars)
        return OptResult(
            STATUS_INFEASIBLE,
            None,
            None,
            out["iterations"],
            mode,
            "dual",
            certificate={"farkas_ray": ray},
        )
    if mode == MODE_RATIONAL:
        x = out["x"]
        # exact feasibility audit
        for r in range(len(b)):
            val = v1[r] * x[i1[r]]
            if i2[r] >= 0:
                val += v2[r] * x[i2[r]]
            if val < b[r]:
                raise TreegromovError("exact simplex returned an infeasible point")
        if out["primal_value"] != out["dual_value"]:
            raise TreegromovError("exact simplex: duality gap is nonzero")
        value, gap = out["primal_value"], Fraction(0)
    else:
        x = _verify_primal_float(i1, v1, i2, v2, b, out["x"], lp.n_vars)
        value = float(np.dot(c, x))
        gap = abs(out["dual_value"] - value)
        if not gap <= GAP_RTOL * max(1.0, abs(value)):  # NaN fails
            raise TreegromovError(f"duality gap {gap:.3e} exceeds tolerance")
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        out["iterations"],
        mode,
        "dual",
        certificate={"dual": out["y"], "duality_gap": gap},
    )


# ---------------------------------------------------------------------------
# solve_assignment: uniform-weight pair-row LP as an assignment
# ---------------------------------------------------------------------------

def solve_assignment(g, mode: str = MODE_FLOAT) -> OptResult:
    """min sum_x x_x subject to x_i + x_j >= g[i, j] for every pair i < j
    and x >= 0, solved as half a maximum-weight assignment on g.

    g is a symmetric n x n table with a zero diagonal and nonnegative
    entries.  The assignment potentials u, v give x = (u + v) / 2, and the
    permutation matrix P gives the dual y_ij = (P_ij + P_ji) / 2, one entry
    per pair row in np.triu_indices order (see the module docstring).  Both
    are audited in O(n^2): the pair rows and x >= 0 within FEAS_ATOL of the
    data scale in float mode (entries of x below zero within it are set to
    zero) and exactly in rational mode, y >= 0 with A^T y <= 1, and the
    duality gap |b.y - sum x|, exactly zero in rational mode and within
    GAP_RTOL in float mode.  A failed audit raises TreegromovError.
    """
    check_mode(mode)
    g = scalar_array(g, mode)
    n = len(g)
    if g.shape != (n, n):
        raise ValidationError(f"gap table must be square, got shape {g.shape}")
    if mode == MODE_FLOAT and not np.isfinite(g).all():
        raise ValidationError("gap table must be finite")
    if (g != g.T).any() or (g.diagonal() != 0).any() or (g < 0).any():
        raise ValidationError(
            "gap table must be symmetric and nonnegative with a zero diagonal"
        )
    col_of_row, u, v, steps = _kernels.max_assignment(g.tolist())
    iu, ju = np.triu_indices(n, 1)
    b = g[iu, ju]
    perm = np.array(col_of_row, dtype=np.int64)
    halves = (perm[iu] == ju).astype(np.int64) + (perm[ju] == iu)
    if mode == MODE_FLOAT:
        x = (np.array(u, dtype=np.float64) + np.array(v, dtype=np.float64)) / 2
        y = halves / 2
        zero = 0.0
        tol = FEAS_ATOL * max(1.0, float(b.max(initial=0.0)))
    else:
        x = np.array([Fraction(a + c) / 2 for a, c in zip(u, v)], dtype=object)
        y = np.array([Fraction(h, 2) for h in halves.tolist()], dtype=object)
        zero = tol = Fraction(0)
    instance = _instance(np.asarray(b, dtype=float), n)
    # argmax and argmin pick a NaN first, and "not <= tol" fails on it
    short = b - (x[iu] + x[ju])
    k = int(np.argmax(short)) if len(b) else -1
    if k >= 0 and not short[k] <= tol:
        raise TreegromovError(
            f"assignment potentials break the pair row ({iu[k]},{ju[k]}) by "
            f"{short[k]}; instance: {instance}"
        )
    k = int(np.argmin(x)) if n else -1
    if k >= 0 and not -x[k] <= tol:
        raise TreegromovError(
            f"assignment potentials put x[{k}] = {x[k]} below zero; "
            f"instance: {instance}"
        )
    back = np.full(n, zero, dtype=y.dtype)
    np.add.at(back, iu, y)
    np.add.at(back, ju, y)
    if (y < 0).any() or (back > 1).any():
        raise TreegromovError("assignment dual breaks y >= 0 or A^T y <= 1")
    if mode == MODE_FLOAT:
        x = np.maximum(x, 0.0)
        value = float(x.sum())
        gap = abs(float(np.dot(b, y)) - value)
        ok = gap <= GAP_RTOL * max(1.0, abs(value))  # NaN fails
        dual = y
    else:
        value = sum(x.tolist(), zero)
        gap = abs(sum((bk * yk for bk, yk in zip(b.tolist(), y.tolist()) if yk), zero) - value)
        ok = gap == 0
        dual = y.tolist()
    if not ok:
        raise TreegromovError(
            f"assignment duality gap {gap} exceeds tolerance; instance: {instance}"
        )
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        steps,
        mode,
        "assignment",
        certificate={"dual": dual, "duality_gap": gap},
    )


# ---------------------------------------------------------------------------
# solve_qp
# ---------------------------------------------------------------------------

def _feasible_start(i1, v1, i2, v2, b, n):
    """Zero if it meets every row, else the constant vector max(b)/2 if it
    does, else the constant max(b), which meets every +1 row."""
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    tol = FEAS_ATOL * scale
    if len(b) == 0 or b.max(initial=0.0) <= tol:
        return np.zeros(n)
    x = np.full(n, float(b.max()) / 2.0)
    if (_kernels.row_dot(i1, v1, i2, v2, x) >= b - tol).all():
        return x
    return np.full(n, float(b.max()))


def solve_qp(qp: QuadraticProgram, mode: str = MODE_FLOAT) -> OptResult:
    """Globally solve the strictly convex QP by primal active-set iteration.

    Every QP is feasible (see the module docstring), so the status is always
    optimal.  Entries of the kernel's x below zero count in the primal KKT
    part, and the returned argmin is x clipped at zero, which keeps every
    +1 row."""
    if mode != MODE_FLOAT:
        raise ValidationError("quadratic solves are float-only")
    i1, v1, i2, v2, b = qp.i1, qp.v1, qp.i2, qp.v2, qp.b
    n = qp.n_vars
    w = qp.weights
    x0 = _feasible_start(i1, v1, i2, v2, b, n)
    max_iter = 1000 + 20 * (len(b) + n)
    with _singular_as_error("active-set QP", b, n):
        status, x, work, iters = _kernels.active_set_qp(
            i1, v1, i2, v2, b, w, x0, 1e-11, max_iter
        )
    if status == _kernels.QP_ITER_LIMIT:
        raise TreegromovError("active-set QP iteration limit hit")
    x = np.asarray(x, dtype=np.float64)
    work = np.asarray(work, dtype=np.int64)
    # multipliers on the working set; zero elsewhere
    mu = np.zeros(len(b))
    if work.size:
        k = work.size
        AW = np.zeros((k, n))
        AW[np.arange(k), i1[work]] = v1[work]
        second = i2[work] >= 0
        AW[np.nonzero(second)[0], i2[work[second]]] += v2[work[second]]
        AWD = AW / w[None, :]
        G = AWD @ AW.T
        with _singular_as_error("active-set QP multipliers", b, n):
            nu = 2.0 * np.linalg.solve(G, b[work])
        mu[work] = nu
    grad = 2.0 * w * x
    stationarity = float(np.abs(grad - _scatter_rows(i1, v1, i2, v2, mu, n)).max(initial=0.0))
    resid = _kernels.row_dot(i1, v1, i2, v2, x) - b
    primal = float(np.maximum(-np.concatenate([resid, x]), 0.0).max(initial=0.0))
    dual = float(np.maximum(-mu, 0.0).max(initial=0.0))
    comp = float(np.abs(mu * resid).max(initial=0.0))
    parts = {"stationarity": stationarity, "primal": primal, "dual": dual, "complementarity": comp}
    # each part relative to the data scale; complementarity is a product of two
    s = max(1.0, float(np.abs(b).max(initial=0.0)), float(np.abs(grad).max(initial=0.0)))
    rel = {k: v / (s * s if k == "complementarity" else s) for k, v in parts.items()}
    # a NaN part ranks above every number and fails the audit
    worst = max(rel, key=lambda k: (math.isnan(rel[k]), rel[k]))
    if not rel[worst] <= KKT_TOL:
        raise TreegromovError(
            f"active-set QP failed its KKT audit ({worst} {parts[worst]:.3e} at data "
            f"scale {s:.3e}); instance: {_instance(b, n)}"
        )
    x = np.maximum(x, 0.0)
    value = float(np.dot(w, x * x))
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        int(iters),
        MODE_FLOAT,
        "active-set",
        kkt_residual=rel[worst],
        certificate={"multipliers": mu, "kkt": parts},
    )

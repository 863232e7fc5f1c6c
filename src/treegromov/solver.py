"""Dense LP and convex-QP solvers sized for a few hundred variables.

The linear solver solves the dual of

    min c.x   s.t.  A x >= b,  0 <= x <= u

with a revised primal simplex, because the dual's basis is only n x n no
matter how many rows the primal has (rows here grow quadratically in the
taxon count while variables grow linearly).  The all-slack dual basis is
feasible exactly when c >= 0, so solve_lp accepts nonnegative objectives
only; every program this package assembles has one.  Exact-rational solves
follow the same route with Fraction arithmetic and Bland's rule throughout.

The quadratic solver is a primal active-set method for strictly convex
diagonal objectives sum w_j x_j^2.  Working-set rows stay linearly
independent automatically (a blocking row has a.p != 0 while working rows
have a.p == 0), so the small KKT systems never need rank checks.

A singular linear system inside either float solver is reported as a
TreegromovError with an instance summary, never as a bare numpy error.

Constraint rows carry 1 or 2 nonzero coefficients of +-1; that structure
is validated at construction and is what the sparse kernels exploit.
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
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"

FEAS_ATOL = 1e-9
GAP_RTOL = 1e-8
KKT_TOL = 1e-9
PIVOT_TOL = 1e-9
BLAND_AFTER = 50

GE = ">="
LE = "<="


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------

def _normalize_entries(entries, n_vars, mode):
    """Validate a sparse row (1-2 entries, coefficients +-1, indices in
    range) and return (i1, v1, i2, v2) with i2 = -1 for single-entry rows."""
    entries = list(entries)
    if not 1 <= len(entries) <= 2:
        raise ValidationError(
            f"constraint rows need 1 or 2 nonzeros, got {len(entries)}"
        )
    out = []
    seen = set()
    for j, val in entries:
        j = int(j)
        if not 0 <= j < n_vars:
            raise ValidationError(f"variable index {j} out of range")
        if j in seen:
            raise ValidationError(f"variable {j} appears twice in one row")
        seen.add(j)
        if val == 1:
            out.append((j, as_scalar(1, mode)))
        elif val == -1:
            out.append((j, as_scalar(-1, mode)))
        else:
            raise ValidationError(f"coefficients must be +-1, got {val}")
    if len(out) == 1:
        return out[0][0], out[0][1], -1, as_scalar(0, mode)
    return out[0][0], out[0][1], out[1][0], out[1][1]


class _RowProgram:
    """Shared storage: >=-normalized sparse rows plus optional upper bounds."""

    __slots__ = ("n_vars", "i1", "v1", "i2", "v2", "b", "upper", "mode")

    def _init_rows(self, n_vars, rows, upper, mode):
        check_mode(mode)
        i1, v1, i2, v2, b = [], [], [], [], []
        for entries, rel, rhs in rows:
            if rel not in (GE, LE):
                raise ValidationError(f"relation must be '>=' or '<=', got {rel!r}")
            rhs = as_scalar(rhs, mode)
            if mode == MODE_FLOAT and not math.isfinite(rhs):
                raise ValidationError(f"rhs must be finite, got {rhs}")
            a1, w1, a2, w2 = _normalize_entries(entries, n_vars, mode)
            if rel == LE:
                w1, w2, rhs = -w1, -w2, -rhs
            i1.append(a1)
            v1.append(w1)
            i2.append(a2)
            v2.append(w2)
            b.append(rhs)
        if upper is not None:
            upper = list(upper)
            if len(upper) != n_vars:
                raise ValidationError("upper bound vector length mismatch")
            checked = []
            for u in upper:
                if u is None or (mode == MODE_FLOAT and u == math.inf):
                    checked.append(None)
                    continue
                u = as_scalar(u, mode)
                if u < 0:
                    raise ValidationError(f"upper bound {u} is below the lower bound 0")
                checked.append(u)
            upper = checked
        object.__setattr__(self, "n_vars", int(n_vars))
        object.__setattr__(self, "i1", tuple(i1))
        object.__setattr__(self, "v1", tuple(v1))
        object.__setattr__(self, "i2", tuple(i2))
        object.__setattr__(self, "v2", tuple(v2))
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "upper", None if upper is None else tuple(upper))
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_rows(self):
        return len(self.b)

    def row_matrix(self) -> np.ndarray:
        """Dense float copy of the >=-normalized rows (debugging/tests)."""
        A = np.zeros((len(self.b), self.n_vars))
        for r in range(len(self.b)):
            A[r, self.i1[r]] = float(self.v1[r])
            if self.i2[r] >= 0:
                A[r, self.i2[r]] += float(self.v2[r])
        return A

    @staticmethod
    def _dense_to_sparse(constraints):
        rows = []
        for coeffs, rel, rhs in constraints:
            entries = [(j, val) for j, val in enumerate(coeffs) if val != 0]
            rows.append((entries, rel, rhs))
        return rows


class LinearProgram(_RowProgram):
    """min c.x subject to the stored rows and 0 <= x (<= upper)."""

    __slots__ = ("c",)

    def __init__(self, objective, constraints, upper=None, mode=MODE_FLOAT):
        objective = list(objective)
        rows = self._dense_to_sparse(constraints)
        self._init_rows(len(objective), rows, upper, mode)
        object.__setattr__(self, "c", tuple(as_scalar(x, mode) for x in objective))

    @classmethod
    def from_sparse(cls, objective, rows, upper=None, mode=MODE_FLOAT):
        """rows: iterable of (entries, rel, rhs) with entries = [(var, +-1), ...]."""
        self = object.__new__(cls)
        objective = list(objective)
        self._init_rows(len(objective), rows, upper, mode)
        object.__setattr__(self, "c", tuple(as_scalar(x, mode) for x in objective))
        return self

    def __repr__(self):
        return (
            f"LinearProgram({self.n_vars} vars, {self.n_rows} rows, "
            f"mode={self.mode})"
        )


class QuadraticProgram(_RowProgram):
    """min sum_j w_j x_j^2 subject to the stored rows and 0 <= x (<= upper);
    w strictly positive, float mode only."""

    __slots__ = ("weights",)

    def __init__(self, weights, constraints, upper=None):
        weights = [float(w) for w in weights]
        if any(w <= 0 for w in weights):
            raise ValidationError("quadratic weights must be strictly positive")
        rows = self._dense_to_sparse(constraints)
        self._init_rows(len(weights), rows, upper, MODE_FLOAT)
        object.__setattr__(self, "weights", tuple(weights))

    @classmethod
    def from_sparse(cls, weights, rows, upper=None):
        self = object.__new__(cls)
        weights = [float(w) for w in weights]
        if any(w <= 0 for w in weights):
            raise ValidationError("quadratic weights must be strictly positive")
        self._init_rows(len(weights), rows, upper, MODE_FLOAT)
        object.__setattr__(self, "weights", tuple(weights))
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
# Row arithmetic helpers (float)
# ---------------------------------------------------------------------------

def _float_rows_with_bounds(prog):
    """Arrays (i1, v1, i2, v2, b) in float64 with upper bounds appended as
    -x_j >= -u_j rows."""
    i1 = list(prog.i1)
    v1 = [float(v) for v in prog.v1]
    i2 = list(prog.i2)
    v2 = [float(v) for v in prog.v2]
    b = [float(x) for x in prog.b]
    if prog.upper is not None:
        for j, u in enumerate(prog.upper):
            if u is None:
                continue
            i1.append(j)
            v1.append(-1.0)
            i2.append(-1)
            v2.append(0.0)
            b.append(-float(u))
    return (
        np.array(i1, dtype=np.int64),
        np.array(v1),
        np.array(i2, dtype=np.int64),
        np.array(v2),
        np.array(b),
    )


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


def _rational_rows_with_bounds(prog):
    i1 = list(prog.i1)
    v1 = [as_scalar(v, MODE_RATIONAL) for v in prog.v1]
    i2 = list(prog.i2)
    v2 = [as_scalar(v, MODE_RATIONAL) if j >= 0 else Fraction(0) for j, v in zip(prog.i2, prog.v2)]
    b = [as_scalar(x, MODE_RATIONAL) for x in prog.b]
    if prog.upper is not None:
        for j, u in enumerate(prog.upper):
            if u is None:
                continue
            i1.append(j)
            v1.append(Fraction(-1))
            i2.append(-1)
            v2.append(Fraction(0))
            b.append(-as_scalar(u, MODE_RATIONAL))
    return i1, v1, i2, v2, b


# ---------------------------------------------------------------------------
# solve_lp
# ---------------------------------------------------------------------------

@contextmanager
def _singular_as_error(route, b, n_vars):
    """Re-raise a LinAlgError from the float kernels or the certificate
    solves as a TreegromovError carrying an instance summary."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise TreegromovError(
            f"{route} hit a singular linear system ({exc}); instance: "
            f"rows={len(b)}, vars={n_vars}, "
            f"max|b|={float(np.abs(b).max(initial=0.0)):.6g}"
        ) from exc


def _verify_primal_float(i1, v1, i2, v2, b, x, upper_n):
    x = np.maximum(x, 0.0)
    vals = _kernels.row_dot(i1, v1, i2, v2, x)
    worst = float((b - vals).max(initial=0.0))
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    if worst > FEAS_ATOL * scale:
        raise TreegromovError(
            f"solver produced an infeasible point (violation {worst:.3e}); "
            "instance dump: "
            f"rows={len(b)}, vars={upper_n}"
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
    if any(x < 0 for x in lp.c):
        raise ValidationError(
            "solve_lp requires a nonnegative objective (dual-route simplex)"
        )

    if mode == MODE_RATIONAL:
        i1, v1, i2, v2, b = _rational_rows_with_bounds(lp)
        c = [as_scalar(x, MODE_RATIONAL) for x in lp.c]
        out = _lp_rational_dual(i1, v1, i2, v2, b, c)
        if out["status"] == STATUS_INFEASIBLE:
            ray = out["farkas"]
            return OptResult(
                STATUS_INFEASIBLE,
                None,
                None,
                out["iterations"],
                MODE_RATIONAL,
                "dual",
                certificate={"farkas_ray": ray},
            )
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
        return OptResult(
            STATUS_OPTIMAL,
            out["primal_value"],
            x,
            out["iterations"],
            MODE_RATIONAL,
            "dual",
            certificate={"dual": out["y"], "duality_gap": Fraction(0)},
        )

    # float mode
    i1, v1, i2, v2, b = _float_rows_with_bounds(lp)
    c = np.array([float(x) for x in lp.c])
    with _singular_as_error("simplex", b, lp.n_vars):
        out = _lp_float_dual(i1, v1, i2, v2, b, c)
    if out["status"] == STATUS_INFEASIBLE:
        ray = out["farkas"]
        # audit: ray >= 0, A^T ray <= 0, b.ray > 0
        back = _scatter_rows(i1, v1, i2, v2, ray, lp.n_vars)
        if back.max(initial=0.0) > 1e-7 or float(np.dot(b, ray)) <= 0:
            raise TreegromovError("invalid Farkas certificate produced")
        return OptResult(
            STATUS_INFEASIBLE,
            None,
            None,
            out["iterations"],
            MODE_FLOAT,
            "dual",
            certificate={"farkas_ray": ray},
        )
    x = _verify_primal_float(i1, v1, i2, v2, b, out["x"], lp.n_vars)
    value = float(np.dot(c, x))
    gap = abs(out["dual_value"] - value)
    if gap > GAP_RTOL * max(1.0, abs(value)):
        raise TreegromovError(f"duality gap {gap:.3e} exceeds tolerance")
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        out["iterations"],
        MODE_FLOAT,
        "dual",
        certificate={"dual": out["y"], "duality_gap": gap},
    )


# ---------------------------------------------------------------------------
# solve_qp
# ---------------------------------------------------------------------------

def _feasible_start(i1, v1, i2, v2, b, n):
    """Zero if feasible, else the constant vector max(b)/2 if feasible,
    else a phase-1 vertex from the zero-objective LP, else None."""
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    tol = FEAS_ATOL * scale
    if len(b) == 0 or b.max(initial=0.0) <= tol:
        return np.zeros(n)
    tbar = float(b.max()) / 2.0
    x = np.full(n, tbar)
    if (_kernels.row_dot(i1, v1, i2, v2, x) >= b - tol).all():
        return x
    out = _lp_float_dual(i1, v1, i2, v2, b, np.zeros(n))
    if out["status"] == STATUS_INFEASIBLE:
        return None
    return np.maximum(out["x"], 0.0)


def solve_qp(qp: QuadraticProgram, mode: str = MODE_FLOAT) -> OptResult:
    """Globally solve the strictly convex QP by primal active-set iteration."""
    if mode != MODE_FLOAT:
        raise ValidationError("quadratic solves are float-only")
    i1, v1, i2, v2, b = _float_rows_with_bounds(qp)
    n = qp.n_vars
    w = np.array(qp.weights)
    with _singular_as_error("active-set QP", b, n):
        x0 = _feasible_start(i1, v1, i2, v2, b, n)
        if x0 is None:
            aux = _lp_float_dual(i1, v1, i2, v2, b, np.zeros(n))
            return OptResult(
                STATUS_INFEASIBLE,
                None,
                None,
                aux["iterations"],
                MODE_FLOAT,
                "active-set",
                certificate={"farkas_ray": aux.get("farkas")},
            )
        max_iter = 1000 + 20 * (len(b) + n)
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
    primal = float(np.maximum(-resid, 0.0).max(initial=0.0))
    dual = float(np.maximum(-mu, 0.0).max(initial=0.0))
    comp = float(np.abs(mu * resid).max(initial=0.0))
    kkt = max(stationarity, primal, dual, comp)
    value = float(np.dot(w, x * x))
    return OptResult(
        STATUS_OPTIMAL,
        value,
        x,
        int(iters),
        MODE_FLOAT,
        "active-set",
        kkt_residual=kkt,
        certificate={
            "multipliers": mu,
            "kkt": {
                "stationarity": stationarity,
                "primal": primal,
                "dual": dual,
                "complementarity": comp,
            },
        },
    )

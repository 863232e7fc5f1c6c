"""Hot numerical kernels, one vectorized numpy implementation each.

Kernels here operate on plain float64 arrays and never touch the domain
types; the calling modules convert to and from them.

Constraint rows and dual columns share one sparse encoding: each row/column
has one or two nonzero entries, stored as ``(idx1, val1, idx2, val2)`` with
``idx2 == -1`` when the second entry is absent.  Values are +-1 for every
program assembled in this package, but the kernels accept any floats.

The simplex kernel solves, with the primal simplex method, the *dual* of

    min c.x   s.t.  A x >= b,  x >= 0

namely  min (-b).y  s.t.  A^T y + s = c,  y >= 0, s >= 0,  which has an
immediately feasible all-slack basis whenever c >= 0.  The caller recovers
the primal optimum from the equality multipliers (x* = -pi).
"""

from __future__ import annotations

import numpy as np

LP_OPTIMAL = 0
LP_DUAL_UNBOUNDED = 1  # primal infeasible
LP_ITER_LIMIT = 2

QP_OPTIMAL = 0
QP_ITER_LIMIT = 2


# ---------------------------------------------------------------------------
# Floyd-Warshall
# ---------------------------------------------------------------------------

def floyd_warshall(dist: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths; ``dist`` is a square matrix with np.inf
    for missing edges.  Returns a new array."""
    d = dist.copy()
    n = d.shape[0]
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


# ---------------------------------------------------------------------------
# Four-point condition scan
# ---------------------------------------------------------------------------
#
# For each unordered quadruple the three pairing sums are
#   s1 = d(i,j)+d(k,l),  s2 = d(i,k)+d(j,l),  s3 = d(i,l)+d(j,k)
# and the condition holds iff the largest does not exceed the second
# largest by more than ``tol``.  Quadruples are scanned in
# lexicographic order (i<j<k<l) and report the first violation as
# (i, j, k, l); (-1, -1, -1, -1) means the condition holds.

def four_point(d: np.ndarray, tol: float):
    n = d.shape[0]
    if n < 4:
        return (-1, -1, -1, -1)
    for i in range(n - 3):
        for j in range(i + 1, n - 2):
            # vectorize over pairs k < l with k > j
            ks, ls = np.triu_indices(n - j - 1, k=1)
            ks = ks + j + 1
            ls = ls + j + 1
            s1 = d[i, j] + d[ks, ls]
            s2 = d[i, ks] + d[j, ls]
            s3 = d[i, ls] + d[j, ks]
            hi = np.maximum(s1, np.maximum(s2, s3))
            mid = s1 + s2 + s3 - hi - np.minimum(s1, np.minimum(s2, s3))
            bad = hi - mid > tol
            if bad.any():
                t = int(np.argmax(bad))
                return (i, j, int(ks[t]), int(ls[t]))
    return (-1, -1, -1, -1)


# ---------------------------------------------------------------------------
# Revised simplex on the dual
# ---------------------------------------------------------------------------

def dense_basis(ci1, cv1, ci2, cv2, basis, n):
    B = np.zeros((n, n))
    pos = np.arange(n)
    B[ci1[basis], pos] = cv1[basis]
    second = ci2[basis] >= 0
    B[ci2[basis[second]], pos[second]] = cv2[basis[second]]
    return B


def dual_simplex(
    ci1, cv1, ci2, cv2, g, c_rhs, bland_after: int, tol: float, max_iter: int
):
    """Primal simplex on the dual problem; see module docstring.

    Returns (status, basis, iterations, ray_col, ray_d).  On
    LP_DUAL_UNBOUNDED, ``ray_col`` is the entering column and ``ray_d`` the
    basic direction, which together define the unbounded dual ray (the
    Farkas certificate of primal infeasibility).
    """
    n = c_rhs.shape[0]
    ncol = g.shape[0]
    basis = np.arange(ncol - n, ncol, dtype=np.int64)
    in_basis = np.zeros(ncol, dtype=bool)
    in_basis[basis] = True
    ci2_safe = np.where(ci2 >= 0, ci2, 0)
    has2 = ci2 >= 0
    degenerate_streak = 0
    no_ray = np.zeros(n)

    for it in range(1, max_iter + 1):
        B = dense_basis(ci1, cv1, ci2, cv2, basis, n)
        xB = np.linalg.solve(B, c_rhs)
        pi = np.linalg.solve(B.T, g[basis])
        red = g - cv1 * pi[ci1] - np.where(has2, cv2 * pi[ci2_safe], 0.0)
        red[in_basis] = 0.0

        if degenerate_streak > bland_after:
            cand = np.nonzero(red < -tol)[0]
            entering = int(cand[0]) if cand.size else -1
        else:
            entering = int(np.argmin(red))
            if red[entering] >= -tol:
                entering = -1
        if entering < 0:
            return (LP_OPTIMAL, basis, it, -1, no_ray)

        a = np.zeros(n)
        a[ci1[entering]] = cv1[entering]
        if ci2[entering] >= 0:
            a[ci2[entering]] += cv2[entering]
        d = np.linalg.solve(B, a)

        pos = d > 1e-11
        if not pos.any():
            return (LP_DUAL_UNBOUNDED, basis, it, entering, d)
        ratios = np.where(pos, xB / np.where(pos, d, 1.0), np.inf)
        theta = float(ratios.min())
        close = np.nonzero(ratios <= theta + 1e-12)[0]
        # Bland-compatible tie-break: smallest variable index leaves
        leave = int(close[np.argmin(basis[close])])

        degenerate_streak = degenerate_streak + 1 if theta <= 1e-11 else 0
        in_basis[basis[leave]] = False
        in_basis[entering] = True
        basis = basis.copy()
        basis[leave] = entering

    return (LP_ITER_LIMIT, basis, max_iter, -1, no_ray)


# ---------------------------------------------------------------------------
# Primal active-set method for  min sum_j w_j x_j^2  s.t.  A x >= b
# ---------------------------------------------------------------------------
#
# The working set stays linearly independent automatically: a blocking row
# satisfies a.p != 0 while every working row satisfies a.p == 0, so a
# blocking row can never be a combination of working rows.  Hence, in exact
# arithmetic, the small KKT systems below are nonsingular.  The step and tie
# tolerances are absolute, so on badly scaled data a nearly dependent row
# can still enter and np.linalg.solve raises; solve_qp reports that as a
# TreegromovError.

def row_dot(ri1, rv1, ri2, rv2, vec):
    """A x for the sparse row encoding: one value per row."""
    out = rv1 * vec[ri1]
    second = ri2 >= 0
    out[second] += rv2[second] * vec[ri2[second]]
    return out


def active_set_qp(
    ri1, rv1, ri2, rv2, b, w, x0, tol: float, max_iter: int
):
    """Returns (status, x, work_rows, iterations)."""
    m = b.shape[0]
    n = w.shape[0]
    x = x0.astype(np.float64).copy()
    work = []
    in_work = np.zeros(m, dtype=bool)
    winv = 1.0 / w

    for it in range(1, max_iter + 1):
        k = len(work)
        if k == 0:
            xhat = np.zeros(n)
            nu = np.zeros(0)
        else:
            rows = np.array(work, dtype=np.int64)
            AW = np.zeros((k, n))
            AW[np.arange(k), ri1[rows]] = rv1[rows]
            second = ri2[rows] >= 0
            AW[np.nonzero(second)[0], ri2[rows[second]]] += rv2[rows[second]]
            AWD = AW * winv[None, :]
            G = AWD @ AW.T
            sol = np.linalg.solve(G, b[rows])
            xhat = AWD.T @ sol
            nu = 2.0 * sol

        p = xhat - x
        if np.abs(p).max(initial=0.0) <= tol * (1.0 + np.abs(x).max(initial=0.0)):
            if k == 0:
                return (QP_OPTIMAL, xhat, np.zeros(0, dtype=np.int64), it)
            worst = int(np.argmin(nu))
            if nu[worst] >= -tol:
                return (QP_OPTIMAL, xhat, np.array(work, dtype=np.int64), it)
            # drop the most negative multiplier; ties go to the lowest row id
            ties = np.nonzero(nu <= nu[worst] + 1e-12)[0]
            rows = np.array(work, dtype=np.int64)
            drop_pos = int(ties[np.argmin(rows[ties])])
            in_work[work[drop_pos]] = False
            work.pop(drop_pos)
            x = xhat
            continue

        ap = row_dot(ri1, rv1, ri2, rv2, p)
        ax = row_dot(ri1, rv1, ri2, rv2, x)
        desc = (~in_work) & (ap < -1e-12)
        alpha = 1.0
        blocking = -1
        if desc.any():
            idx = np.nonzero(desc)[0]
            steps = (ax[idx] - b[idx]) / (-ap[idx])
            steps = np.maximum(steps, 0.0)
            amin = float(steps.min())
            if amin < 1.0 - 1e-12:
                alpha = amin
                close = idx[steps <= amin + 1e-12]
                blocking = int(close.min())
        x = x + alpha * p
        if blocking >= 0:
            work.append(blocking)
            in_work[blocking] = True

    return (QP_ITER_LIMIT, x, np.array(work, dtype=np.int64), max_iter)

"""Brute-force oracles, independent of the package's solvers.

Everything here enumerates: LP minima come from inspecting every basic
vertex of the constraint polyhedron, QP minima from minimizing over every
face, tree metrics from Dijkstra, and the four-point test from checking
every quadruple.  Slow on purpose; used to pin expected values for the
fast implementations.  Tree metrics and splits also have the package's
former routes here, one traversal per taxon and one walk per edge, so the
one-pass rewrites can be compared with them bit for bit.

The package's former norm-2 kernel, a primal active-set method that
solves each working-set system from scratch, is kept as a reference for
the dual active-set kernel that replaced it, and so are its former exact
norm-1 routes, the Fraction dual simplex and the Hungarian assignment
kernel, for the transportation kernel that replaced both, and its former
float norm-1 kernel, a dual simplex that rebuilt and solved the dense
basis at every pivot, for the carried exact inverse that replaced it.  A
dense two-phase primal simplex, independent of the package's dual route,
is here as well; it and the vertex enumeration also solve programs the
package no longer builds, such as the norm-inf epigraph LP
(assemble_dense with epigraph=True), whose optimum is the closed form
max|rho - rho'| / 2.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

import numpy as np

from treegromov._kernels import LP_DUAL_UNBOUNDED, LP_ITER_LIMIT, LP_OPTIMAL
from treegromov.core import RTOL

FEAS_TOL = 1e-9


# ---------------------------------------------------------------------------
# program assembly (independent of the package's sparse-row builder)


def assemble_dense(table1, table2, variant, bounded=False, epigraph=False):
    """Dense (A, b, upper) for the relabeling program of two distance
    tables: pair rows delta_x + delta_y >= |d1 - d2|, and for the full
    variant difference rows delta_x - delta_y >= -(d1 + d2) both ways.

    With epigraph=True appends a variable t and rows t - delta_x >= 0.
    Returns float arrays; exact inputs should use Fraction lists instead.
    """
    t1 = np.asarray(table1, dtype=float)
    t2 = np.asarray(table2, dtype=float)
    n = t1.shape[0]
    nv = n + 1 if epigraph else n
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            r = np.zeros(nv)
            r[i] = r[j] = 1.0
            rows.append(r)
            rhs.append(abs(t1[i, j] - t2[i, j]))
    if variant == "full":
        for i in range(n):
            for j in range(i + 1, n):
                r = np.zeros(nv)
                r[i], r[j] = 1.0, -1.0
                rows.append(r)
                rhs.append(-(t1[i, j] + t2[i, j]))
                rows.append(-r)
                rhs.append(-(t1[i, j] + t2[i, j]))
    if epigraph:
        for i in range(n):
            r = np.zeros(nv)
            r[nv - 1], r[i] = 1.0, -1.0
            rows.append(r)
            rhs.append(0.0)
    upper = None
    if bounded:
        dinf = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                dinf = max(dinf, abs(t1[i, j] - t2[i, j]))
        upper = [dinf] * n + ([None] if epigraph else [])
    return np.array(rows), np.array(rhs), upper


def assemble_dense_exact(table1, table2, variant):
    """Fraction twin of assemble_dense (pair and difference rows only)."""
    n = len(table1)
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            r = [Fraction(0)] * n
            r[i] = r[j] = Fraction(1)
            rows.append(r)
            rhs.append(abs(Fraction(table1[i][j]) - Fraction(table2[i][j])))
    if variant == "full":
        for i in range(n):
            for j in range(i + 1, n):
                s = Fraction(table1[i][j]) + Fraction(table2[i][j])
                r = [Fraction(0)] * n
                r[i], r[j] = Fraction(1), Fraction(-1)
                rows.append(r)
                rhs.append(-s)
                rows.append([-x for x in r])
                rhs.append(-s)
    return rows, rhs


# ---------------------------------------------------------------------------
# LP by vertex enumeration


def lp_vertex_oracle(c, A, b, upper=None, tol=FEAS_TOL):
    """Minimum of c.x over A x >= b, x >= 0 (and x <= upper where given),
    found by solving every n-row tight subsystem and keeping the feasible
    best.  Returns (value, x) or (None, None) if no vertex is feasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    rows = [A, np.eye(n)]
    rhs = [b, np.zeros(n)]
    if upper is not None:
        for j, u in enumerate(upper):
            if u is None:
                continue
            r = np.zeros(n)
            r[j] = -1.0
            rows.append(r[None, :])
            rhs.append(np.array([-float(u)]))
    M = np.vstack(rows)
    q = np.concatenate(rhs)
    total = M.shape[0]
    scale = max(1.0, float(np.abs(q).max(initial=0.0)))
    best_val, best_x = None, None
    idx = np.array(list(itertools.combinations(range(total), n)))
    for lo in range(0, len(idx), 20000):
        chunk = idx[lo : lo + 20000]
        Ms = M[chunk]
        dets = np.abs(np.linalg.det(Ms))
        ok = dets > 1e-9
        if not ok.any():
            continue
        xs = np.linalg.solve(Ms[ok], q[chunk[ok]][:, :, None])[:, :, 0]
        feas = (M @ xs.T >= (q - tol * scale)[:, None]).all(axis=0)
        if not feas.any():
            continue
        vals = xs[feas] @ c
        k = int(np.argmin(vals))
        if best_val is None or vals[k] < best_val:
            best_val, best_x = float(vals[k]), xs[feas][k]
    return best_val, best_x


def lp_vertex_oracle_exact(c, rows, rhs, upper=None):
    """Fraction twin of lp_vertex_oracle; exact, so only for tiny systems.

    A float pass over every n-row subset screens out the singular ones
    (all coefficients are 0 or +-1, so a nonsingular subset has |det| >= 1)
    and those whose vertex is infeasible by far more than rounding; every
    survivor is then solved and checked in Fractions."""
    n = len(c)
    M = [list(map(Fraction, r)) for r in rows]
    q = [Fraction(v) for v in rhs]
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        M.append(e)
        q.append(Fraction(0))
    if upper is not None:
        for j, u in enumerate(upper):
            if u is None:
                continue
            e = [Fraction(0)] * n
            e[j] = Fraction(-1)
            M.append(e)
            q.append(-Fraction(u))
    Mf = np.array(M, dtype=float)
    qf = np.array(q, dtype=float)
    slack = 1e-6 * max(1.0, float(np.abs(qf).max(initial=0.0)))
    idx = np.array(list(itertools.combinations(range(len(M)), n)))
    best_val, best_x = None, None
    for lo in range(0, len(idx), 20000):
        chunk = idx[lo : lo + 20000]
        Ms = Mf[chunk]
        ok = np.abs(np.linalg.det(Ms)) > 0.5
        if not ok.any():
            continue
        xs = np.linalg.solve(Ms[ok], qf[chunk[ok]][:, :, None])[:, :, 0]
        near = (Mf @ xs.T >= (qf - slack)[:, None]).all(axis=0)
        for subset in chunk[ok][near]:
            x = _solve_exact([M[i][:] for i in subset], [q[i] for i in subset])
            if x is None:
                continue
            if all(sum(row[j] * x[j] for j in range(n)) >= qq for row, qq in zip(M, q)):
                val = sum(c[j] * x[j] for j in range(n))
                if best_val is None or val < best_val:
                    best_val, best_x = val, x
    return best_val, best_x


def _solve_exact(M, q):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(q)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        q[col], q[piv] = q[piv], q[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        q[col] *= inv
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * bb for a, bb in zip(M[r], M[col])]
                q[r] -= f * q[col]
    return q


# ---------------------------------------------------------------------------
# QP by face enumeration


def qp_face_oracle(w, A, b, upper=None, tol=FEAS_TOL):
    """Minimum of sum w_j x_j^2 over A x >= b (and x <= upper where
    given), by solving the equality-constrained problem on every row
    subset of size <= n and keeping the feasible best.

    The unconstrained minimizer x = 0 is the empty subset.  Returns
    (None, None) when no candidate is feasible, i.e. the program itself
    is infeasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if upper is not None:
        extra_rows, extra_rhs = [], []
        for j, u in enumerate(upper):
            if u is None:
                continue
            r = np.zeros(n)
            r[j] = -1.0
            extra_rows.append(r)
            extra_rhs.append(-float(u))
        if extra_rows:
            A = np.vstack([A, extra_rows])
            b = np.concatenate([b, extra_rhs])
            m = A.shape[0]
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    W2 = np.diag(2.0 * np.asarray(w, dtype=float))
    best_val, best_x = None, None
    for k in range(0, n + 1):
        idx = np.array(list(itertools.combinations(range(m), k)))
        if idx.size == 0 and k > 0:
            continue
        if k == 0:
            cands = np.zeros((1, n))
        else:
            N = len(idx)
            K = np.zeros((N, n + k, n + k))
            K[:, :n, :n] = W2
            As = A[idx]
            K[:, :n, n:] = As.transpose(0, 2, 1)
            K[:, n:, :n] = As
            r = np.zeros((N, n + k))
            r[:, n:] = b[idx]
            dets = np.abs(np.linalg.det(K))
            ok = dets > 1e-9
            if not ok.any():
                continue
            sol = np.linalg.solve(K[ok], r[ok][:, :, None])[:, :, 0]
            cands = sol[:, :n]
        feas = (A @ cands.T >= (b - tol * scale)[:, None]).all(axis=0)
        if not feas.any():
            continue
        vals = (cands[feas] ** 2) @ np.asarray(w, dtype=float)
        j = int(np.argmin(vals))
        if best_val is None or vals[j] < best_val:
            best_val, best_x = float(vals[j]), cands[feas][j]
    return best_val, best_x


# ---------------------------------------------------------------------------
# LP by the dense two-phase primal simplex

PRIMAL_ROW_CAP = 3000
PRIMAL_PIVOT_TOL = 1e-9


def lp_primal_oracle(c, A, b):
    """Minimum of c.x over A x >= b, x >= 0 by a two-phase dense tableau
    simplex with Bland's rule throughout; any sign of c is allowed.
    Returns (value, x) or (None, None) when the program is infeasible."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if m > PRIMAL_ROW_CAP:
        raise ValueError(f"primal oracle is capped at {PRIMAL_ROW_CAP} rows (got {m})")
    rows = np.arange(m)
    # orient every row to b >= 0; >= rows keep a -1 surplus, flipped rows a +1 slack
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    surplus = np.where(flip, 1.0, -1.0)
    # columns: n structural | m surplus/slack | artificials for unflipped rows
    art_rows = np.nonzero(~flip)[0]
    n_art = len(art_rows)
    total = n + m + n_art
    T = np.zeros((m, total + 1))
    T[:, :n] = A
    T[rows, n + rows] = surplus
    for k, r in enumerate(art_rows):
        T[r, n + m + k] = 1.0
    T[:, total] = b
    basis = np.empty(m, dtype=np.int64)
    basis[flip] = n + rows[flip]
    basis[art_rows] = n + m + np.arange(n_art)

    def pivot(r, col):
        T[r] /= T[r, col]
        for rr in range(m):
            if rr != r and T[rr, col] != 0.0:
                T[rr] -= T[rr, col] * T[r]
        basis[r] = col

    def run_phase(cost, allowed, max_iter):
        for _ in range(max_iter):
            red = cost[:total] - cost[basis] @ T[:, :total]
            red[basis] = 0.0
            entering = -1
            for j in range(total):  # Bland: lowest improving index
                if allowed[j] and red[j] < -PRIMAL_PIVOT_TOL:
                    entering = j
                    break
            if entering < 0:
                return
            col = T[:, entering]
            pos = col > PRIMAL_PIVOT_TOL
            ratios = np.where(pos, T[:, total] / np.where(pos, col, 1.0), np.inf)
            if not np.isfinite(ratios).any():
                raise RuntimeError("primal simplex detected an unbounded objective")
            theta = ratios.min()
            close = np.nonzero(ratios <= theta + 1e-12)[0]
            pivot(int(close[np.argmin(basis[close])]), entering)
        raise RuntimeError("primal simplex iteration limit hit")

    max_iter = 20000 + 50 * total
    allowed = np.ones(total, dtype=bool)
    phase1_cost = np.zeros(total + 1)
    phase1_cost[n + m :] = 1.0
    run_phase(phase1_cost, allowed, max_iter)
    infeas = float(np.sum(T[:, total][basis >= n + m]))
    if infeas > 1e-7 * max(1.0, float(np.abs(b).max(initial=0.0))):
        return None, None
    # drive any zero-level artificials out of the basis
    for r in range(m):
        if basis[r] >= n + m:
            cand = np.nonzero(np.abs(T[r, : n + m]) > PRIMAL_PIVOT_TOL)[0]
            if cand.size:
                pivot(r, int(cand[0]))
    allowed[n + m :] = False
    phase2_cost = np.zeros(total + 1)
    phase2_cost[:n] = c
    run_phase(phase2_cost, allowed, max_iter)
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, total]
    return float(np.dot(c, x)), x


# ---------------------------------------------------------------------------
# QP by the primal active-set method (the package's former norm-2 kernel)
#
# The working set stays linearly independent in exact arithmetic: a
# blocking row satisfies a.p != 0 while every working row satisfies
# a.p == 0.  The step and tie tolerances are absolute, so on data scaled
# far from 1 a nearly dependent row can enter and np.linalg.solve raises;
# the reference is used only at scales 1e-3 to 1e1, where it solves.


def primal_active_set_qp(i1, i2, b, w, x0, tol=1e-11, max_iter=None):
    """min sum_j w_j x_j^2 over the pair rows x[i1] + x[i2] >= b from the
    feasible start x0, rebuilding and solving the working-set KKT system
    from scratch at every step.  Returns (converged, x, work_rows,
    iterations)."""
    m = b.shape[0]
    n = w.shape[0]
    if max_iter is None:
        max_iter = 1000 + 20 * (m + n)
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
            AW[np.arange(k), i1[rows]] = 1.0
            AW[np.arange(k), i2[rows]] = 1.0
            AWD = AW * winv[None, :]
            G = AWD @ AW.T
            sol = np.linalg.solve(G, b[rows])
            xhat = AWD.T @ sol
            nu = 2.0 * sol

        p = xhat - x
        if np.abs(p).max(initial=0.0) <= tol * (1.0 + np.abs(x).max(initial=0.0)):
            if k == 0:
                return (True, xhat, np.zeros(0, dtype=np.int64), it)
            worst = int(np.argmin(nu))
            if nu[worst] >= -tol:
                return (True, xhat, np.array(work, dtype=np.int64), it)
            # drop the most negative multiplier; ties go to the lowest row id
            ties = np.nonzero(nu <= nu[worst] + 1e-12)[0]
            rows = np.array(work, dtype=np.int64)
            drop_pos = int(ties[np.argmin(rows[ties])])
            in_work[work[drop_pos]] = False
            work.pop(drop_pos)
            x = xhat
            continue

        ap = p[i1] + p[i2]
        ax = x[i1] + x[i2]
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

    return (False, x, np.array(work, dtype=np.int64), max_iter)


def primal_start(b, n):
    """The former feasible start: zero if it meets every pair row, else
    the constant max(b)/2, which meets every one."""
    top = float(b.max(initial=0.0))
    if top <= FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
        return np.zeros(n)
    return np.full(n, top / 2.0)


# ---------------------------------------------------------------------------
# The package's former float norm-1 kernel, replaced by the carried exact
# basis inverse of _kernels.dual_simplex


def dense_basis(i1, i2, basis, n):
    """The n x n basis matrix of the dual's columns ``basis``: pair column
    r has +1 at rows i1[r] and i2[r], slack column m + j has +1 at row j."""
    m = i1.shape[0]
    B = np.zeros((n, n))
    pos = np.arange(n)
    pair = basis < m
    B[i1[basis[pair]], pos[pair]] = 1.0
    B[i2[basis[pair]], pos[pair]] = 1.0
    B[basis[~pair] - m, pos[~pair]] = 1.0
    return B


def dense_dual_simplex(i1, i2, b, c_rhs, bland_after, tol, max_iter):
    """The former _kernels.dual_simplex: the same pricing and ratio test
    with absolute thresholds, rebuilding the dense basis and solving three
    linear systems per pivot.  Returns (status, basis, iterations, xB, pi)
    with the _kernels status codes.  About 14 s at n=400; keep it to
    n <= 200."""
    n = c_rhs.shape[0]
    m = b.shape[0]
    g = np.concatenate([-b, np.zeros(n)])
    basis = np.arange(m, m + n, dtype=np.int64)
    in_basis = np.zeros(m + n, dtype=bool)
    in_basis[basis] = True
    degenerate_streak = 0

    for it in range(1, max_iter + 1):
        B = dense_basis(i1, i2, basis, n)
        xB = np.linalg.solve(B, c_rhs)
        pi = np.linalg.solve(B.T, g[basis])
        red = np.concatenate([g[:m] - pi[i1] - pi[i2], -pi])
        red[in_basis] = 0.0

        if degenerate_streak > bland_after:
            cand = np.nonzero(red < -tol)[0]
            entering = int(cand[0]) if cand.size else -1
        else:
            entering = int(np.argmin(red))
            if red[entering] >= -tol:
                entering = -1
        if entering < 0:
            return (LP_OPTIMAL, basis, it, xB, pi)

        a = np.zeros(n)
        if entering < m:
            a[i1[entering]] = a[i2[entering]] = 1.0
        else:
            a[entering - m] = 1.0
        d = np.linalg.solve(B, a)

        pos = d > 1e-11
        if not pos.any():
            return (LP_DUAL_UNBOUNDED, basis, it, xB, pi)
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

    return (LP_ITER_LIMIT, basis, max_iter, None, None)


# ---------------------------------------------------------------------------
# The package's former exact norm-1 routes: the Fraction dual simplex and
# the Hungarian assignment kernel, both replaced by _kernels.max_transport


def _frac_solve(mat, rhs):
    """Exact Gaussian elimination; mat is a list of Fraction rows."""
    n = len(rhs)
    M = [list(mat[r]) + [rhs[r]] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
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


def exact_dual_simplex(i1, i2, b, c):
    """min c.x over the pair rows x[i1] + x[i2] >= b and x >= 0, for c >= 0,
    by the primal simplex on the dual with Bland's rule, in Fractions.
    Column j < m of the dual is pair row j, column m + k the slack of
    x[k].  Returns (value, x, y)."""
    i1, i2 = [int(a) for a in i1], [int(a) for a in i2]
    b, c = [Fraction(a) for a in b], [Fraction(a) for a in c]
    n = len(c)
    m = len(b)
    zero, one = Fraction(0), Fraction(1)
    g = [-x for x in b] + [zero] * n
    ncol = m + n
    basis = list(range(m, ncol))
    in_basis = [False] * m + [True] * n

    def column(col):
        return (i1[col], i2[col]) if col < m else (col - m,)

    while True:
        B = [[zero] * n for _ in range(n)]
        for t, col in enumerate(basis):
            for r in column(col):
                B[r][t] = one
        xB = _frac_solve(B, c)
        Bt = [[B[r][t] for r in range(n)] for t in range(n)]
        pi = _frac_solve(Bt, [g[col] for col in basis])
        entering = next(
            (j for j in range(ncol)
             if not in_basis[j] and g[j] - sum(pi[r] for r in column(j)) < 0),
            -1,
        )
        if entering < 0:
            y = [zero] * m
            for t, col in enumerate(basis):
                if col < m:
                    y[col] = xB[t]
            x = [-p for p in pi]
            return sum(ci * xi for ci, xi in zip(c, x)), x, y
        a = [zero] * n
        for r in column(entering):
            a[r] = one
        d = _frac_solve(B, a)
        ratios = [(xB[t] / d[t], basis[t], t) for t in range(n) if d[t] > 0]
        _, _, leave = min(ratios)  # ties: the smallest variable leaves
        in_basis[basis[leave]] = False
        in_basis[entering] = True
        basis[leave] = entering


def max_assignment(g):
    """The Hungarian method (shortest augmenting paths) on the square table
    g, a list of row lists: returns (col_of_row, u, v, steps), with the
    dual potentials and the number of Dijkstra steps.  The start is u = row
    maxima, v = 0, with each row matched to its first argmax column when
    that column is still free."""
    n = len(g)
    u = [max(row) for row in g]
    v = [0] * n
    col_of_row = [-1] * n
    row_of_col = [-1] * n
    for i, row in enumerate(g):
        j = row.index(u[i])
        if row_of_col[j] < 0:
            row_of_col[j] = i
            col_of_row[i] = j
    steps = 0
    for s in range(n):
        if col_of_row[s] >= 0:
            continue
        us = u[s]
        dist = [us + vj - gj for vj, gj in zip(v, g[s])]
        pred = [s] * n
        todo = list(range(n))
        done = []
        while True:
            steps += 1
            j1 = min(todo, key=dist.__getitem__)
            d = dist[j1]
            todo.remove(j1)
            i = row_of_col[j1]
            if i < 0:
                break
            done.append(j1)
            base = d + u[i]
            gi = g[i]
            for j in todo:
                cur = base + v[j] - gi[j]
                if cur < dist[j]:
                    dist[j] = cur
                    pred[j] = i
        for j in done:
            shift = d - dist[j]
            v[j] += shift
            u[row_of_col[j]] -= shift
        u[s] -= d
        j = j1
        while True:
            i = pred[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == s:
                break
    return col_of_row, u, v, steps


# ---------------------------------------------------------------------------
# distances straight from the definitions


def gromov_oracle(table1, table2, norm, variant="full", bounded=False):
    """Distance value by enumeration (float).  norm in {1, 2, "inf"}."""
    n = np.asarray(table1).shape[0]
    if norm == "inf":
        A, b, upper = assemble_dense(table1, table2, variant, bounded, epigraph=True)
        c = np.zeros(n + 1)
        c[n] = 1.0
        val, _ = lp_vertex_oracle(c, A, b, upper)
        return val
    A, b, upper = assemble_dense(table1, table2, variant, bounded)
    if norm == 1:
        val, _ = lp_vertex_oracle(np.ones(n), A, b, upper)
        return val
    val, _ = qp_face_oracle(np.ones(n), A, b, upper)
    return float(np.sqrt(max(val, 0.0)))


def gromov_oracle_exact(table1, table2, variant="full"):
    """Exact norm-1 value over Fraction tables, by vertex enumeration."""
    n = len(table1)
    rows, rhs = assemble_dense_exact(table1, table2, variant)
    val, _ = lp_vertex_oracle_exact([Fraction(1)] * n, rows, rhs)
    return val


def tree_metric_oracle(tree):
    """Leaf-to-leaf shortest paths by Dijkstra, floats."""
    adj = {}
    for u, v, w in tree.edges:
        adj.setdefault(u, []).append((v, float(w)))
        adj.setdefault(v, []).append((u, float(w)))
    labs = tree.taxa.labels
    n = len(labs)
    out = np.zeros((n, n))
    for i, lab in enumerate(labs):
        src = tree.leaf_map[lab]
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, np.inf):
                continue
            for v, w in adj.get(u, []):
                nd = d + w
                if nd < dist.get(v, np.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for j, lab2 in enumerate(labs):
            out[i, j] = dist[tree.leaf_map[lab2]]
    return out


def tree_metric_traversal(tree):
    """The induced table by one whole-tree traversal per taxon, summing
    each distance outward from the taxon earlier in canonical order and
    mirroring it (the package's former route).  Entries are floats or
    Fractions as the tree's weights are, so it is compared bit for bit."""
    taxa = tree.taxa
    n = len(taxa)
    adj = tree.adjacency()
    zero = Fraction(0) if tree.mode == "rational" else 0.0
    table = np.full((n, n), zero, dtype=object if tree.mode == "rational" else float)
    vert = [tree.leaf_map[lab] for lab in taxa.labels]
    vert_to_taxon = {v: i for i, v in enumerate(vert)}
    for i in range(n):
        dist = {vert[i]: zero}
        stack = [vert[i]]
        while stack:
            u = stack.pop()
            for nbr, w in adj[u]:
                if nbr not in dist:
                    dist[nbr] = dist[u] + w
                    stack.append(nbr)
        for v, d in dist.items():
            j = vert_to_taxon.get(v)
            if j is not None and j > i:
                table[i, j] = table[j, i] = d
    return table


def splits_walk(tree):
    """Every edge's split, by walking the tree once per edge from one of
    its endpoints (the package's former route); a set of Split."""
    from treegromov.treemetric import Split

    adj = tree.adjacency()
    labels_at = {v: lab for lab, v in tree.leaf_map.items()}
    all_taxa = set(tree.taxa.labels)
    out = set()
    for u, v, _ in tree.edges:
        side = {u}
        stack = [u]
        while stack:
            a = stack.pop()
            for nbr, _w in adj[a]:
                if nbr != v and nbr not in side:
                    side.add(nbr)
                    stack.append(nbr)
        block_a = {labels_at[w] for w in side if w in labels_at}
        out.add(Split(block_a, all_taxa - block_a))
    return out


def robinson_foulds_walk(t1, t2):
    """Robinson-Foulds distance from splits_walk: the size of the symmetric
    difference of the non-trivial split sets."""
    nontrivial = [{s for s in splits_walk(t) if not s.is_trivial()} for t in (t1, t2)]
    return len(nontrivial[0] ^ nontrivial[1])


def triangle_witness_loop(rho):
    """First (i, j, k) by a triple loop in lexicographic order with
    d(i,k) less its tolerance (RTOL times |d(i,k)| on floats, 0 on
    Fractions) above d(i,j) + d(j,k), as labels, else None; the rule of
    core.axiom_witnesses, cell by cell."""
    labs = rho.taxa.labels
    tab = rho.table
    n = len(labs)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = tab[i, k]
                if rho.mode != "rational":
                    lhs = lhs - RTOL * abs(lhs)
                if lhs > tab[i, j] + tab[j, k]:
                    return labs[i], labs[j], labs[k]
    return None


def four_point_oracle(table, rtol=RTOL):
    """First quadruple (by index order) where the largest of the three
    pairing sums exceeds the middle one by more than rtol times the data
    scale max|d|, the package's float tolerance, else None.  A
    table of Fractions (object dtype) is scanned exactly, with tolerance 0."""
    d = np.asarray(table)
    if d.dtype == object:
        tol = 0
    else:
        d = d.astype(float)
        tol = rtol * float(np.abs(d).max(initial=0.0))
    n = d.shape[0]
    for quad in itertools.combinations(range(n), 4):
        i, j, k, l = quad
        sums = sorted([d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]])
        if sums[2] - sums[1] > tol:
            return quad
    return None


# ---------------------------------------------------------------------------
# instance generators shared by the test files


def random_integer_semimetric(n, rng, lo=1, hi=9):
    """Random integer distance table: symmetric draws closed under
    shortest paths, so the triangle inequality holds and entries stay
    in [lo, hi] with zero diagonal."""
    d = rng.integers(lo, hi + 1, size=(n, n)).astype(float)
    d = np.triu(d, 1)
    d = d + d.T
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    np.fill_diagonal(d, 0.0)
    return d.astype(int)

"""Brute-force oracles, independent of the package's solvers.

Everything here enumerates: LP minima come from inspecting every basic
vertex of the constraint polyhedron, QP minima from minimizing over every
face, tree metrics from Dijkstra, and the four-point test from checking
every quadruple.  Slow on purpose; used to pin expected values for the
fast implementations.

Two reference routes that the package no longer runs live here as well: a
dense two-phase primal simplex (independent of the package's dual route),
and the norm-inf epigraph LP, built as a package LinearProgram so that
solve_lp can be checked against the closed form max|rho - rho'| / 2.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

import numpy as np

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
    """Fraction twin of lp_vertex_oracle; exact, so only for tiny systems."""
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
    best_val, best_x = None, None
    for subset in itertools.combinations(range(len(M)), n):
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
# the norm-inf epigraph LP, as a program for the package's solve_lp


def epigraph_lp(rho, rho_prime, variant="full"):
    """min t over the relabeling rows plus t >= delta_x for every taxon,
    as a LinearProgram in the semimetrics' mode (variable n is t)."""
    from treegromov import LinearProgram
    from treegromov.solver import GE

    n = len(rho.taxa)
    d, dp = rho.table, rho_prime.table
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            rows.append((((i, 1), (j, 1)), GE, abs(d[i, j] - dp[i, j])))
    if variant == "full":
        for i in range(n):
            for j in range(i + 1, n):
                rows.append((((i, 1), (j, -1)), GE, -(d[i, j] + dp[i, j])))
                rows.append((((j, 1), (i, -1)), GE, -(d[i, j] + dp[i, j])))
    for i in range(n):
        rows.append((((n, 1), (i, -1)), GE, 0))
    return LinearProgram.from_sparse([0] * n + [1], rows, mode=rho.mode)


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


def four_point_oracle(table, tol=1e-9):
    """First quadruple (by index order) where the largest of the three
    pairing sums exceeds the middle one by more than tol, else None."""
    d = np.asarray(table, dtype=float)
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

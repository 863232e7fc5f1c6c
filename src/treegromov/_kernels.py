"""Hot numerical kernels, one implementation each.

Kernels here never touch the domain types; the calling modules convert to
and from them.  All but two operate on plain float64 arrays.  The
exceptions are max_transport, the transportation kernel on the
capacitated bipartite double cover that solves all of exact norm 1 and
unweighted float norm 1, and tree_certificate.  They run on a list of row
lists so that the same code is exact on Python ints: in rational mode
their callers scale the Fraction data by the lcm of its denominators
(core._as_integers), which is exact and order-preserving, and no Fraction
reaches them.  They stay on lists in float mode too, so there is one
implementation.  Each O(n) step of max_transport scans a row, and at the
benchmark's sizes numpy's per-call overhead outweighs the vector work: on
a 2-core x86-64 host, a column-vectorised numpy assignment took 0.26-0.28
s for 45 assignments at n=50 (the gap tables of ten uniform(0,1] trees),
against 0.15-0.17 s on lists; the two were even at n=100, and numpy was
twice as fast at n=200 (69 against 136 ms).  tree_certificate takes about
2 ms on an n=80 tree metric on the same host, against about 0.2 s for the
four-point scan it saves.

Programs are pair rows x[i1[r]] + x[i2[r]] >= b[r] with i1[r] != i2[r],
passed as the index arrays i1, i2 and the right-hand side b; every row has
two +1 coefficients, so no coefficient array is stored.

The simplex kernel solves, with the primal simplex method, the *dual* of

    min c.x   s.t.  A x >= b,  x >= 0

namely  min (-b).y  s.t.  A^T y + s = c,  y >= 0, s >= 0,  which has an
immediately feasible all-slack basis whenever c >= 0.  Column r < m of
the dual is pair row r, and column m + j the slack of x[j].  The caller
recovers the primal optimum from the equality multipliers (x* = -pi).
Every basis inverse of this dual has entries in {0, +-1/2, +-1}, so the
kernel carries it exactly in float64 through product-form updates and
solves no linear system; the proof, and why each threshold is relative,
are in the comment above dual_simplex.
"""

from __future__ import annotations

import numpy as np

LP_OPTIMAL = 0
LP_DUAL_UNBOUNDED = 1  # primal infeasible: on pair rows, only rounding
LP_ITER_LIMIT = 2

QP_OPTIMAL = 0
QP_NO_STEP = 1  # rows infeasible: on pair rows, only rounding
QP_ITER_LIMIT = 2


# ---------------------------------------------------------------------------
# Floyd-Warshall
# ---------------------------------------------------------------------------

def floyd_warshall(dist: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths; ``dist`` is a square matrix with inf for
    missing edges, float64 or an object array of Fractions (Fraction + inf
    is inf, and np.minimum keeps the Fraction).  Returns a new array."""
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
# Tree-metric certificate (Gromov products at taxon 0)
# ---------------------------------------------------------------------------
#
# g[a][b] = d(0,x) + d(0,y) - d(x,y) for taxa x = a+1, y = b+1 is twice the
# Gromov product at taxon 0; only the upper triangle of d is read, as in
# four_point.  Prim's method grows a maximum spanning tree on g, and each
# vertex is checked against the tree vertices at the moment it joins: the
# table is certified when no pair falls below its bottleneck (the smallest
# edge on its tree path) by more than 2*eps, i.e. when the products are an
# eps-ultrametric.  The proof that this bounds every quadruple is in the
# treemetric module docstring.
#
# No bottleneck table is kept.  If the vertices join in the order
# pi(0), pi(1), ... with join keys k(1), k(2), ..., then for i < j the
# bottleneck of pi(i) and pi(j) is min(k(i+1), ..., k(j)).  It is at most
# that: a path between them crosses the cut {pi(0..s-1)} for the s where
# the minimum sits, and k(s) is the largest edge across that cut.  It is at
# least that, by induction on j: pi(j) joins some pi(q) by an edge k(j); if
# q >= i the claim follows from the one for (i, q), and if q < i, every
# k(s) with q < s <= i is >= k(j), because pi(j) was a candidate through
# pi(q) whenever pi(s) was chosen.  So one backward pass over the join
# order with a running minimum of the keys gives every bottleneck.

def tree_certificate(d, eps) -> bool:
    """True when the Gromov products at taxon 0 of the table d (a list of
    row lists) form an eps-ultrametric; False at the first pair that does
    not.  Exact when the entries are ints (or Fractions) and eps is 0."""
    n = len(d)
    if n < 4:
        return True
    m = n - 1
    d0 = d[0]
    upper = [
        [d0[x] + d0y - dxy for d0y, dxy in zip(d0[x + 1 :], d[x][x + 1 :])]
        for x in range(1, n)
    ]
    g = [
        [upper[b][a - b - 1] for b in range(a)] + [0] + upper[a]
        for a in range(m)
    ]
    slack = 2 * eps
    key = list(g[0])  # frozen at the join key once a vertex is in the tree
    order = [0]
    todo = list(range(1, m))
    while todo:
        v = max(todo, key=key.__getitem__)
        todo.remove(v)
        gv = g[v]
        b = key[v]
        for t in reversed(order):
            if gv[t] < b - slack:
                return False
            if key[t] < b:
                b = key[t]
        order.append(v)
        for u in todo:
            if gv[u] > key[u]:
                key[u] = gv[u]
    return True


# ---------------------------------------------------------------------------
# Revised simplex on the dual, on an exact carried basis inverse
# ---------------------------------------------------------------------------
#
# Read a basis of the dual as a graph on the n rows: pair column r is the
# edge {i1[r], i2[r]} and slack column m + j a half-edge at row j.  A
# component with k rows holds k basic columns, so it is a tree plus one
# edge or half-edge, and its block is nonsingular exactly when that extra
# column is a half-edge or closes an odd cycle (around an even cycle,
# alternating signs are a kernel vector).  Solve B z = e_v by peeling
# leaves: the one basic column at a leaf row takes what is left of that
# row's right-hand side, which is 0 or +-1, since only row v starts with
# a 1.  What remains is the half-edge, whose entry is then 0 or +-1, or
# the odd cycle, whose entries alternate in sign around it, so that going
# once around gives 2 z = 0 or +-1.  So B^-1 has entries in
# {0, +-1/2, +-1}: the half-integrality of fractional matching and vertex
# packing (Balinski 1965; Nemhauser-Trotter 1975).
#
# The kernel starts from the all-slack basis, B^-1 = I, and carries B^-1
# through the product-form update (Dantzig-Orchard-Hays 1954): the entering
# column a gives d = B^-1 a, the sum of one or two columns of B^-1, and
# row leave of the new inverse is row leave of the old one over d[leave],
# with d[i] times that row subtracted from each other row i with d[i] != 0
# (only the rows of the entering column's component: a median of 4 of 400
# on a weighted tree pair at n=400, so the update costs O(n) per such
# row).  That new row has entries in {0, +-1/2, +-1} and is not zero, so
# the pivot d[leave] is 1/2, 1 or 2.  Every operand is then a multiple of
# 1/4 of size at most 3, which float64 holds exactly, so every update is
# exact: the carried inverse never drifts and is never refactorized.  xB = B^-1 c and
# pi^T = g_B^T B^-1 are recomputed from it at every pivot, in O(n^2), the
# order of the O(m) pricing.
#
# Thresholds.  d is exact, so the ratio test takes d > 0 with no epsilon.
# Reduced costs are linear in b, so the pricing test is relative to max|b|
# (tol is relative); xB is linear in c, so the degeneracy and tie tests
# are relative to max c.  Scaling b by a power of two then scales every
# reduced cost, threshold and multiplier exactly, and the pivots, the
# value and the argmin follow bitwise.  An absolute pricing threshold
# stopped at the all-slack basis with value 0 when max|b| was below it.

def dual_simplex(i1, i2, b, c_rhs, bland_after: int, tol: float, max_iter: int):
    """Primal simplex on the dual problem; see the module docstring and
    the comment above.

    tol is relative: an entering column needs a reduced cost below
    -tol * max|b|.  Returns (status, basis, iterations, xB, pi, binv):
    binv is the inverse of the returned basis, and xB = binv c and
    pi = binv^T g[basis] on LP_OPTIMAL and LP_DUAL_UNBOUNDED; xB and pi are
    None on LP_ITER_LIMIT.
    """
    n = c_rhs.shape[0]
    m = b.shape[0]
    g = np.concatenate([-b, np.zeros(n)])
    price = tol * float(np.abs(b).max(initial=0.0))
    cmax = float(c_rhs.max(initial=0.0))
    # a pivot this short moves the objective by rounding only: degenerate
    degen = 1e-11 * cmax
    # ratios this close are equal up to the rounding of xB = binv c
    tie = 1e-12 * cmax
    basis = np.arange(m, m + n, dtype=np.int64)
    binv = np.eye(n)
    degenerate_streak = 0

    for it in range(1, max_iter + 1):
        xB = binv @ c_rhs
        pi = g[basis] @ binv
        red = np.concatenate([g[:m] - pi[i1] - pi[i2], -pi])
        red[basis] = 0.0

        if degenerate_streak > bland_after:
            cand = np.nonzero(red < -price)[0]
            entering = int(cand[0]) if cand.size else -1
        else:
            entering = int(np.argmin(red))
            if red[entering] >= -price:
                entering = -1
        if entering < 0:
            return (LP_OPTIMAL, basis, it, xB, pi, binv)

        if entering < m:
            d = binv[:, i1[entering]] + binv[:, i2[entering]]
        else:
            d = binv[:, entering - m].copy()

        pos = d > 0.0  # d is exact, so its sign is too
        if not pos.any():
            return (LP_DUAL_UNBOUNDED, basis, it, xB, pi, binv)
        ratios = np.where(pos, xB / np.where(pos, d, 1.0), np.inf)
        theta = float(ratios.min())
        close = np.nonzero(ratios <= theta + tie)[0]
        # Bland-compatible tie-break: smallest variable index leaves
        leave = int(close[np.argmin(basis[close])])

        degenerate_streak = degenerate_streak + 1 if theta <= degen else 0
        row = binv[leave] / d[leave]
        # only the rows where d is nonzero change: a few, at any n
        rows = d.nonzero()[0]
        binv[rows] -= np.outer(d[rows], row)
        binv[leave] = row
        basis = basis.copy()
        basis[leave] = entering

    return (LP_ITER_LIMIT, basis, max_iter, None, None, binv)


# ---------------------------------------------------------------------------
# Dual active-set method (Goldfarb-Idnani) for  min sum_j w_j x_j^2  s.t.  A x >= b
# ---------------------------------------------------------------------------
#
# With D = diag(1/(2w)) the unconstrained minimiser is x = 0, and a working
# set N of pair rows with multipliers u >= 0 gives the iterate x = D N u,
# which is stationary by construction.  Each outer step picks the most
# violated row p (column n_p, slack s_p < 0); each inner step moves the
# multipliers along (-r, 1), where r = Minv N^T D n_p with the carried
# Minv = (N^T D N)^-1.  The primal direction z = D (n_p - N r) has
# z.n_p = n_p.D.n_p - (N^T D n_p).r, which is also the Schur complement
# that borders Minv when p joins, so z itself is never formed.  The step is
# the smaller of the primal step -s_p / z.n_p, which makes p tight and adds
# it, and the dual step min u_j / r_j over r_j > 0, which zeroes u_q and
# drops q by a rank-one downdate of Minv.  A row enters only when
# z.n_p > 1e-12 (D[a] + D[c]), judged relative to its own scale, so it is
# never a combination of the working rows: the working set stays
# independent and never exceeds n rows (a full set takes dual steps only,
# which also holds under rounding).  r and z depend on w alone, the
# feasibility test is tol * max|b|, and u and x are linear in b, so
# scaling b by s scales x and u by s and leaves every choice of working
# set as it was.  No linear system is solved and nothing can raise; a row
# with no finite step (z.n_p = 0 and no r_j > 0) proves the rows
# infeasible, which pair rows never are, and ends the solve with
# QP_NO_STEP.

def active_set_qp(i1, i2, b, w, tol: float, max_iter: int):
    """Returns (status, x, work_rows, iterations).  iterations counts the
    final pricing pass and every step that adds or drops a row; a step
    that would make it exceed max_iter ends the solve with QP_ITER_LIMIT."""
    m = b.shape[0]
    n = w.shape[0]
    d = 0.5 / w
    feas = tol * float(np.abs(b).max(initial=0.0))
    minv = np.zeros((n, n))
    work = np.zeros(n, dtype=np.int64)
    w1 = np.zeros(n, dtype=np.int64)
    w2 = np.zeros(n, dtype=np.int64)
    u = np.zeros(n)
    dp = np.zeros(n)  # D n_p: nonzero only at the candidate's two entries
    x = np.zeros(n)
    k = 0
    it = 1
    while m:
        s = x[i1] + x[i2] - b
        s[work[:k]] = 0.0
        p = int(np.argmin(s))
        sp = float(s[p])
        if sp >= -feas:
            break
        a, c = int(i1[p]), int(i2[p])
        dp[a], dp[c] = d[a], d[c]
        dpp = d[a] + d[c]
        up = 0.0
        while True:
            if it >= max_iter:
                return (QP_ITER_LIMIT, x, work[:k].copy(), it)
            it += 1
            cv = dp[w1[:k]] + dp[w2[:k]]
            r = minv[:k, :k] @ cv
            sigma = dpp - float(cv @ r)
            tp = -sp / sigma if k < n and sigma > 1e-12 * dpp else np.inf
            td, q = np.inf, -1
            pos = (r > 0.0).nonzero()[0]
            if pos.size:
                ratios = u[pos] / r[pos]
                j = int(np.argmin(ratios))
                td, q = float(ratios[j]), int(pos[j])
            if tp == np.inf and q < 0:
                return (QP_NO_STEP, x, work[:k].copy(), it)
            if tp <= td:
                # p joins: border Minv with the Schur complement sigma
                u[:k] -= tp * r
                rs = r / sigma
                minv[:k, :k] += r[:, None] * rs
                minv[:k, k] = -rs
                minv[k, :k] = -rs
                minv[k, k] = 1.0 / sigma
                work[k], w1[k], w2[k], u[k] = p, a, c, up + tp
                k += 1
                break
            # q leaves: move it to the last slot, then downdate Minv
            u[:k] -= td * r
            up += td
            if tp != np.inf:
                sp += td * sigma
            last = k - 1
            if q != last:
                swap = [q, last]
                for arr in (work, w1, w2, u):
                    arr[swap] = arr[swap[::-1]]
                minv[swap, :k] = minv[swap[::-1], :k]
                minv[:k, swap] = minv[:k, swap[::-1]]
            col = minv[:last, last] / minv[last, last]
            minv[:last, :last] -= minv[:last, last, None] * col
            k = last
        dp[a] = dp[c] = 0.0
        x = d * (np.bincount(w1[:k], u[:k], n) + np.bincount(w2[:k], u[:k], n))
    return (QP_OPTIMAL, x, work[:k].copy(), it)


# ---------------------------------------------------------------------------
# Maximum-profit transportation (successive shortest paths)
# ---------------------------------------------------------------------------
#
# Maximise sum g[i][j] f[i][j] over flows f >= 0 in which row i sends at
# most cap[i] and column j takes at most cap[j] (the capacitated bipartite
# double cover); with every cap 1 it is the maximum-weight assignment and
# this is the Hungarian method.  The dual is min sum cap_i (u_i + v_i)
# subject to u_i + v_j >= g[i][j]; the reduced costs u_i + v_j - g[i][j]
# stay >= 0 and are 0 wherever flow runs.  Each row with residual supply
# runs Dijkstra on them: each step finalises the first column of least
# distance and, unless that column still takes flow, scans each row that
# sends into it and was not scanned yet (at the column's distance: the
# reverse arc costs 0).  The last such scan also finds the next column,
# the one min(todo) would pick.  The potentials of the scanned rows and the
# finalised columns then shift by their distance to the column reached,
# which keeps the reduced costs >= 0 and makes the path tight, and the
# path carries the least of the residual supply, the residual demand and
# the flow on each arc it runs backwards.  Supply and demand have one total
# and every row reaches every column, so all of it is sent, and the flow
# and the potentials end with equal objectives.

def max_transport(g, cap):
    """Optimal transportation on the square table g (a list of row lists)
    with the integer capacities cap, one per row and column index.

    Returns (sent, u, v, steps): sent[j] maps each row i that sends to
    column j to its amount f_ij > 0, then the dual potentials, tight
    wherever flow runs, and the number of Dijkstra steps.  It only adds,
    subtracts and compares, so it is exact on ints, and scaling g by L > 0
    scales u and v by L and keeps the flow and the step count.  The start
    is u = row maxima, v = 0, each row sending to its first argmax column
    as much as that column takes.  With unit caps the flow is a
    permutation."""
    n = len(g)
    u = [max(row) for row in g]
    v = [0] * n
    supply = list(cap)
    demand = list(cap)
    sent = [{} for _ in range(n)]
    for i, row in enumerate(g):
        j = row.index(u[i])
        f = min(supply[i], demand[j])
        if f > 0:
            sent[j][i] = f
            supply[i] -= f
            demand[j] -= f
    inf = float("inf")
    seen = [0] * n  # the last search, numbered from 1, that scanned row i
    via = [0] * n  # the column that search reached row i through
    steps = search = 0
    for s in range(n):
        while supply[s] > 0:
            search += 1
            seen[s] = search
            via[s] = -1
            us = u[s]
            dist = [us + vj - gj for vj, gj in zip(v, g[s])]
            pred = [s] * n
            todo = list(range(n))
            done = []
            j1 = min(todo, key=dist.__getitem__)
            while True:
                steps += 1
                d = dist[j1]
                todo.remove(j1)
                if demand[j1] > 0:
                    break
                done.append(j1)
                nxt = -1
                for i in sent[j1]:
                    if seen[i] == search:
                        continue
                    seen[i] = search
                    via[i] = j1
                    base = d + u[i]
                    gi = g[i]
                    best = inf
                    for j in todo:
                        cur = base + v[j] - gi[j]
                        dj = dist[j]
                        if cur < dj:
                            dist[j] = dj = cur
                            pred[j] = i
                        if dj < best:
                            best = dj
                            nxt = j
                j1 = nxt if nxt >= 0 else min(todo, key=dist.__getitem__)
            for j in done:
                shift = d - dist[j]
                v[j] += shift
                for i in sent[j]:
                    if via[i] == j:
                        u[i] -= shift
            u[s] -= d
            amount = min(supply[s], demand[j1])
            i = pred[j1]
            while i != s:
                back = sent[via[i]][i]
                if back < amount:
                    amount = back
                i = pred[via[i]]
            supply[s] -= amount
            demand[j1] -= amount
            j = j1
            while True:
                i = pred[j]
                col = sent[j]
                col[i] = col.get(i, 0) + amount
                if i == s:
                    break
                j = via[i]
                col = sent[j]
                if col[i] == amount:
                    del col[i]
                else:
                    col[i] -= amount
    return sent, u, v, steps

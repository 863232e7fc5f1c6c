"""Output checks that do not use the package.

Each check takes the program's answer as plain values (numbers, arrays,
labels) and the benchmark's own reference tables from ``gen``, and returns
None when the answer is right or a one-line reason when it is not.  The
checks run outside the timed region; a rejected answer counts as a failed
op.  ``self_test`` shows that each check rejects a corrupted answer.

Tolerances are relative to the largest input distance, so they hold from
substitutions per site to years.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

RTOL = 1e-8


def _scale(*tables) -> float:
    return max([1.0] + [float(np.max(np.abs(np.asarray(t, dtype=float)))) for t in tables])


# ---------------------------------------------------------------------------
# Norm 1 with uniform weights: half the maximum-weight assignment


def max_assignment(g):
    """Maximum of sum_i g[i][p(i)] over permutations p (Hungarian method,
    shortest augmenting paths).  Exact for ints and Fractions."""
    n = len(g)
    cost = [[-x for x in row] for row in g]
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # column -> row, 1-based, 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = cost[i0 - 1]
            ui = u[i0]
            delta, j1 = None, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(g[match[j] - 1][j - 1] for j in range(1, n + 1))


def gaps(ta, tb):
    """|rho - rho'| as a list of rows (exact for exact entries)."""
    return [[abs(a - b) for a, b in zip(ra, rb)] for ra, rb in zip(ta, tb)]


def check_d1_uniform(value, ta, tb, exact=False):
    """D1 = Dt1 = max-weight assignment on |rho - rho'| / 2."""
    m = max_assignment(gaps(ta, tb))
    if exact:
        want = Fraction(m) / 2
        if Fraction(value) != want:
            return f"D1 {value} != assignment/2 = {want}"
        return None
    want = m / 2.0
    if abs(float(value) - want) > RTOL * max(1.0, abs(want)):
        return f"D1 {value!r} != assignment/2 = {want!r}"
    return None


# ---------------------------------------------------------------------------
# Rows of the variant, LP dual and QP KKT certificates


def _pair_index(n):
    return np.triu_indices(n, k=1)


def row_system(ta, tb, variant):
    """(i, ci, j, cj, b) arrays of the rows ci*d_i + cj*d_j >= b in the order
    the programs list them: pair rows for i < j, then for the full variant
    the two difference rows of each pair."""
    a = np.asarray(ta, dtype=float)
    c = np.asarray(tb, dtype=float)
    iu, ju = _pair_index(len(a))
    ones = np.ones(len(iu))
    parts = [(iu, ones, ju, ones, np.abs(a - c)[iu, ju])]
    if variant == "full":
        total = (a + c)[iu, ju]
        ii = np.stack([iu, ju], axis=1).ravel()
        jj = np.stack([ju, iu], axis=1).ravel()
        parts.append((ii, np.ones(len(ii)), jj, -np.ones(len(ii)), -np.repeat(total, 2)))
    return tuple(np.concatenate([p[k] for p in parts]) for k in range(5))


def _row_values(rows, x):
    i, ci, j, cj, _ = rows
    return ci * x[i] + cj * x[j]


def _transpose_times(rows, y, n):
    i, ci, j, cj, _ = rows
    out = np.zeros(n)
    np.add.at(out, i, ci * y)
    np.add.at(out, j, cj * y)
    return out


def check_rows(delta, ta, tb, variant):
    """delta >= 0 satisfies every row of its variant."""
    x = np.asarray(delta, dtype=float)
    tol = RTOL * _scale(ta, tb)
    if (x < -tol).any():
        return f"negative delta {x.min()!r}"
    rows = row_system(ta, tb, variant)
    short = float((rows[4] - _row_values(rows, x)).max(initial=0.0))
    if short > tol:
        return f"delta violates a {variant} row by {short!r}"
    return None


def _certificate_rows(ta, tb, length):
    n = len(ta)
    pairs = n * (n - 1) // 2
    variant = {pairs: "lower", 3 * pairs: "full"}.get(length)
    if variant is None:
        return None
    return row_system(ta, tb, variant)


def check_lp_dual(value, delta, weights, dual, ta, tb):
    """Weighted norm 1: value = w.delta, and the dual vector y >= 0 with
    A^T y <= w and b.y = value proves delta optimal."""
    x = np.asarray(delta, dtype=float)
    w = np.asarray(weights, dtype=float)
    y = np.asarray(dual, dtype=float)
    scale = _scale(ta, tb)
    tol = RTOL * scale * max(1.0, float(w.sum()))
    if abs(float(value) - float(w @ x)) > tol:
        return f"D1 {value!r} != w.delta {float(w @ x)!r}"
    rows = _certificate_rows(ta, tb, len(y))
    if rows is None:
        return f"dual vector has unexpected length {len(y)}"
    if (y < -RTOL * max(1.0, float(w.max()))).any():
        return "dual vector has a negative entry"
    excess = float((_transpose_times(rows, y, len(x)) - w).max(initial=0.0))
    if excess > RTOL * max(1.0, float(w.max())) * 10:
        return f"dual is infeasible by {excess!r}"
    if float(rows[4] @ y) < float(value) - tol:
        return f"dual bound {float(rows[4] @ y)!r} below value {value!r}"
    return None


def check_d2(value, delta, weights, multipliers, ta, tb):
    """Norm 2: value^2 = sum w delta^2, and the KKT conditions recomputed
    from the multipliers: stationarity 2 w delta = A^T mu, mu >= 0 and
    complementary slackness."""
    x = np.asarray(delta, dtype=float)
    w = np.asarray(weights, dtype=float)
    mu = np.asarray(multipliers, dtype=float)
    scale = _scale(ta, tb)
    raw = float(w @ (x * x))
    if abs(float(value) ** 2 - raw) > RTOL * max(1.0, raw):
        return f"D2^2 {float(value) ** 2!r} != sum w delta^2 {raw!r}"
    rows = _certificate_rows(ta, tb, len(mu))
    if rows is None:
        return f"multiplier vector has unexpected length {len(mu)}"
    grad = 2.0 * w * x
    gscale = max(1.0, float(np.abs(grad).max(initial=0.0)))
    if (mu < -RTOL * gscale).any():
        return f"negative multiplier {mu.min()!r}"
    resid = float(np.abs(grad - _transpose_times(rows, mu, len(x))).max(initial=0.0))
    if resid > RTOL * gscale * 10:
        return f"KKT stationarity residual {resid!r}"
    slack = _row_values(rows, x) - rows[4]
    comp = float(np.abs(mu * slack).max(initial=0.0))
    if comp > RTOL * gscale * scale * 10:
        return f"complementary slackness residual {comp!r}"
    return None


# ---------------------------------------------------------------------------
# Trees: four-point condition, Robinson-Foulds, path difference, extension


def _quadruple_excess(d, i, j, k, l):
    """Largest pairing sum minus the second largest."""
    s = sorted((d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]))
    return s[2] - s[1]


def four_point_violated(table) -> bool:
    """Full scan: does some quadruple violate the four-point condition
    beyond the float tolerance?"""
    d = np.asarray(table, dtype=float)
    n = len(d)
    tol = 1e-9 * _scale(d)
    for i in range(n - 3):
        for j in range(i + 1, n - 2):
            sub = d[j + 1 :, j + 1 :]
            s1 = d[i, j] + sub
            s2 = d[i, j + 1 :, None] + d[j, None, j + 1 :]
            s3 = d[i, None, j + 1 :] + d[j, j + 1 :, None]
            stacked = np.sort(np.stack([s1, s2, s3]), axis=0)
            upper = np.triu(np.ones(sub.shape, dtype=bool), k=1)
            if ((stacked[2] - stacked[1]) > tol)[upper].any():
                return True
    return False


def check_four_point(answer, table, names, is_tree):
    """True on a tree metric; a returned witness must really violate the
    condition; True on a non-tree table is confirmed by a full scan."""
    ok, witness = answer
    if ok:
        if not is_tree and four_point_violated(table):
            return "four_point_check passed a table that violates the condition"
        return None
    if is_tree:
        return f"four_point_check rejected a tree metric (witness {witness})"
    try:
        idx = [names.index(lab) for lab in witness]
    except (TypeError, ValueError):
        return f"witness {witness!r} is not a taxon quadruple"
    if len(set(idx)) != 4 or _quadruple_excess(table, *idx) <= 0:
        return f"witness {witness!r} satisfies the four-point condition"
    return None


def check_rf(rf, n, splits_a, splits_b):
    """RF is even, at most 2(n-3), and counts the splits the trees differ in."""
    if rf % 2 or not 0 <= rf <= 2 * (n - 3):
        return f"RF {rf} is odd or outside [0, {2 * (n - 3)}]"
    want = len(splits_a ^ splits_b)
    if rf != want:
        return f"RF {rf} != {want}"
    return None


def check_pd1(value, ta, tb):
    a = np.asarray(ta, dtype=float)
    c = np.asarray(tb, dtype=float)
    want = float(np.abs(a - c)[_pair_index(len(a))].sum())
    if abs(float(value) - want) > RTOL * max(1.0, want):
        return f"PD1 {value!r} != {want!r}"
    return None


def check_dinf(value, ta, tb):
    want = float(np.abs(np.asarray(ta, dtype=float) - np.asarray(tb, dtype=float)).max()) / 2
    if abs(float(value) - want) > RTOL * max(1.0, want):
        return f"Dinf {value!r} != max gap / 2 = {want!r}"
    return None


def check_table(got_labels, got_table, names, table):
    """A Semimetric built from ``table`` keeps its labels and entries."""
    if list(got_labels) != list(names):
        return "taxon order changed"
    err = float(np.abs(np.asarray(got_table, dtype=float) - np.asarray(table, dtype=float)).max())
    if err > RTOL * _scale(table):
        return f"table entries changed by {err!r}"
    return None


def check_extension(ext_labels, ext_table, names, ta, tb, delta):
    """The extension restricts to rho on the taxa, to rho' on their primed
    copies, and puts each taxon at distance delta_x from its copy."""
    pos = {lab: k for k, lab in enumerate(ext_labels)}
    try:
        left = [pos[x] for x in names]
        right = [pos[x + "'"] for x in names]
    except KeyError as exc:
        return f"extension lacks point {exc}"
    d = np.asarray(ext_table, dtype=float)
    tol = RTOL * _scale(ta, tb)
    for idx, want, name in ((left, ta, "rho"), (right, tb, "rho'")):
        err = float(np.abs(d[np.ix_(idx, idx)] - np.asarray(want, dtype=float)).max())
        if err > tol:
            return f"extension misses {name} by {err!r}"
    err = float(np.abs(d[left, right] - np.asarray(delta, dtype=float)).max())
    if err > tol:
        return f"extension misses delta by {err!r}"
    return None


# ---------------------------------------------------------------------------


def self_test(tg, gen):
    """Run each check on a real answer from package ``tg`` (it must pass)
    and on a corrupted copy (it must fail).  Returns a list of problems."""
    import random

    rng = random.Random(20240601)
    n = 9
    a = gen.random_tree(rng, n, gen.uniform01)
    b = gen.random_tree(rng, n, gen.uniform01)
    ta, tb = a.path_table(), b.path_table()
    names = a.names
    ra = tg.tree_to_semimetric(tg.parse_newick(a.newick()))
    rb = tg.tree_to_semimetric(tg.parse_newick(b.newick()))
    avg = [[(x + y) / 2 for x, y in zip(r, s)] for r, s in zip(ta, tb)]
    avg_rho = tg.semimetric_from_table(names, avg)
    problems = []

    def expect(label, good, bad):
        if good is not None:
            problems.append(f"{label}: rejected a correct answer: {good}")
        if bad is None:
            problems.append(f"{label}: accepted a corrupted answer")

    d1 = tg.gromov_distance(ra, rb, tg.GromovSpec(norm=1)).value
    expect("D1 value", check_d1_uniform(d1, ta, tb), check_d1_uniform(d1 * 1.001, ta, tb))

    ua = gen.random_tree(rng, 7)
    ub = gen.random_tree(rng, 7)
    ea = tg.tree_to_semimetric(tg.parse_newick(ua.newick(), mode="rational"))
    eb = tg.tree_to_semimetric(tg.parse_newick(ub.newick(), mode="rational"))
    exact = tg.gromov_distance(ea, eb, tg.GromovSpec(norm=1)).value
    expect(
        "exact D1 value",
        check_d1_uniform(exact, ua.path_table(), ub.path_table(), exact=True),
        check_d1_uniform(exact + Fraction(1, 2), ua.path_table(), ub.path_table(), exact=True),
    )

    weights = [0.5 + rng.random() for _ in range(n)]
    spec2 = tg.GromovSpec(norm=2, variant="full", taxon_weights=weights)
    res = tg.gromov_distance(ra, rb, spec2)
    delta = np.array(res.argmin.values, dtype=float)
    mu = res.certificate["multipliers"]
    worse = delta.copy()
    worse[int(np.argmax(worse))] *= 0.5
    expect("delta rows", check_rows(delta, ta, tb, "full"), check_rows(worse, ta, tb, "full"))
    expect(
        "D2 KKT",
        check_d2(res.value, delta, weights, mu, ta, tb),
        check_d2(res.value, delta * 1.01, weights, mu, ta, tb),
    )
    res1 = tg.gromov_distance(ra, rb, tg.GromovSpec(norm=1, taxon_weights=weights))
    x1 = np.array(res1.argmin.values, dtype=float)
    y1 = res1.certificate["dual"]
    expect(
        "weighted D1 dual",
        check_lp_dual(res1.value, x1, weights, y1, ta, tb),
        check_lp_dual(res1.value * 1.01, x1, weights, y1, ta, tb),
    )

    tree_answer = tg.four_point_check(ra)
    mixed_answer = tg.four_point_check(avg_rho)
    flipped_tree = (False, tuple(names[:4]))
    flipped_mixed = (True, None) if not mixed_answer[0] else (False, tuple(names[:4]))
    expect(
        "four-point on a tree",
        check_four_point(tree_answer, ta, names, True),
        check_four_point(flipped_tree, ta, names, True),
    )
    expect(
        "four-point on a mixture",
        check_four_point(mixed_answer, avg, names, False),
        check_four_point(flipped_mixed, avg, names, False),
    )

    pa, pb = tg.parse_newick(a.newick()), tg.parse_newick(b.newick())
    rf = tg.robinson_foulds(pa, pb)
    expect("RF", check_rf(rf, n, a.splits(), b.splits()), check_rf(rf + 1, n, a.splits(), b.splits()))

    dinf = tg.dinf_closed_form(ra, rb)
    ext = tg.realize_extension(ra, rb, tg.DeltaVector(ra.taxa, [dinf] * n))
    labs, tab = ext.semimetric.taxa.labels, ext.semimetric.table
    bent = np.array(tab, dtype=float)
    bent[0, 1] = bent[1, 0] = bent[0, 1] + 0.25
    expect(
        "extension",
        check_extension(labs, tab, names, ta, tb, [dinf] * n),
        check_extension(labs, bent, names, ta, tb, [dinf] * n),
    )
    return problems

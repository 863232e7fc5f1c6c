"""Norm 1 on the transportation kernel.

solver.solve_lp sends every norm-1 program without taxon weights, and
every rational one, to this kernel, with the taxon weights as capacities.  The references here
are the float LP simplex (explicit unit taxon weights in float mode), the
package's former Fraction dual simplex and Hungarian kernel (kept in
tests/_oracles.py), exact vertex enumeration, brute-force assignment and
optional scipy oracles.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import _oracles as orc
from treegromov import (
    GromovSpec,
    LinearProgram,
    QuadraticProgram,
    TreegromovError,
    ValidationError,
    gromov_distance,
    parse_newick,
    quadrangle_feasible,
    random_binary_tree,
    random_caterpillar,
    semimetric_from_table,
    solve_lp,
    tree_to_semimetric,
)
from treegromov import _kernels, solver
from treegromov.gromov import _pair_arrays


def _pair(n, seed, kind="uniform01", mode="float"):
    """Two tree metrics on n taxa ("unit", "uniform01", or "scaled":
    uniform01 times 10**k for k in -3..6 by seed); a 1-taxon table for n=1."""
    if n == 1:
        one = semimetric_from_table(["a"], [[0]], mode=mode)
        return one, one
    model = "unit" if kind == "unit" else "uniform01"
    r1, r2 = (
        tree_to_semimetric(random_binary_tree(n, s, model, mode)) for s in (seed, seed + 100)
    )
    if kind == "scaled":
        factor = 10.0 ** (seed % 10 - 3)
        r1, r2 = r1.scaled(factor), r2.scaled(factor)
    return r1, r2


def _gaps(r1, r2):
    return np.abs(r1.table - r2.table)


def _unit_lp(r1, r2, **kw):
    """The float LP simplex route: the same program with explicit unit
    weights."""
    n = len(r1.taxa)
    return gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=(1,) * n, **kw))


def _exact_simplex(r1, r2, weights=None):
    """D1 from the former Fraction dual simplex on the pair rows."""
    i1, i2, b = _pair_arrays(r1, r2)
    value, _, _ = orc.exact_dual_simplex(i1, i2, b, weights or [1] * len(r1.taxa))
    return value


def _reference(r1, r2):
    """Unweighted D1 from a route other than the kernel: the float simplex,
    or the Fraction simplex in rational mode."""
    if r1.mode == "rational":
        return _exact_simplex(r1, r2)
    return _unit_lp(r1, r2).value


def _brute_assignment(g):
    n = len(g)
    return max(sum(g[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def _check_certificate(res, r1, r2, weights=None):
    """dual: one entry per pair row (i < j, row-major), y >= 0,
    A^T y <= w (unit weights by default; within 1e-9 relative in float
    mode) and b.y = value; the gap is exactly 0 in rational mode, where
    unit weights give y in {0, 1/2, 1}."""
    n = len(r1.taxa)
    w = weights or [1] * n
    iu, ju = np.triu_indices(n, 1)
    y = list(res.certificate["dual"])
    assert len(y) == len(iu)
    b = _gaps(r1, r2)[iu, ju]
    back = [0] * n
    for i, j, yk in zip(iu, ju, y):
        back[i] += yk
        back[j] += yk
    assert all(yk >= 0 for yk in y)
    tol = 0 if res.mode == "rational" else 1e-9 * max(w)
    assert all(t <= wt + tol for t, wt in zip(back, w))
    by = sum((bk * yk for bk, yk in zip(b, y)), 0)
    if res.mode == "rational":
        assert all(isinstance(yk, Fraction) for yk in y)
        if weights is None:
            assert all(yk in (0, Fraction(1, 2), 1) for yk in y)
        assert by == res.value
        assert res.certificate["duality_gap"] == 0
    else:
        assert by == pytest.approx(res.value, rel=1e-9, abs=1e-9)
        assert res.certificate["duality_gap"] <= 1e-8 * max(1.0, res.value)


def _permutation(sent, u, v, steps):
    """max_transport's answer with unit caps in the Hungarian kernel's
    form (col_of_row, u, v, steps)."""
    perm = [-1] * len(sent)
    for j, col in enumerate(sent):
        for i, f in col.items():
            assert f == 1 and perm[i] < 0
            perm[i] = j
    return perm, u, v, steps


@pytest.mark.parametrize("kind", ["unit", "uniform01", "scaled"])
def test_float_d1_matches_the_lp_route(kind):
    for n in range(1, 61):
        r1, r2 = _pair(n, n, kind)
        got = gromov_distance(r1, r2, GromovSpec(norm=1))
        want = _unit_lp(r1, r2)
        assert got.method == "assignment" and want.method == "dual"
        scale = max(1.0, float(r1.table.max()), float(r2.table.max()))
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-9 * scale), n
        _check_certificate(got, r1, r2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rational_d1_matches_exact_vertex_enumeration(n):
    for seed in range(3):
        r1, r2 = _pair(n, 10 * n + seed, "unit", "rational")
        rows, rhs = orc.assemble_dense_exact(r1.table.tolist(), r2.table.tolist(), "lower")
        want, _ = orc.lp_vertex_oracle_exact([1] * n, rows, rhs)
        res = gromov_distance(r1, r2, GromovSpec(norm=1))
        assert res.method == "assignment"
        assert isinstance(res.value, Fraction) and res.value == want
        _check_certificate(res, r1, r2)


@pytest.mark.parametrize("n", [12, 18, 24])
def test_rational_d1_matches_the_rational_simplex(n):
    r1, r2 = _pair(n, 3, "unit", "rational")
    res = gromov_distance(r1, r2, GromovSpec(norm=1))
    assert res.value == _exact_simplex(r1, r2)
    _check_certificate(res, r1, r2)


def _fraction_tree(n, seed, lengths):
    """Newick of a random binary tree on n taxa, each edge length drawn
    from lengths (Fraction strings)."""
    rng = np.random.default_rng(seed)
    items = [f"t{k:02d}:{rng.choice(lengths)}" for k in range(n)]
    while len(items) > 2:
        i = int(rng.integers(len(items) - 1))
        items[i : i + 2] = [f"({items[i]},{items[i + 1]}):{rng.choice(lengths)}"]
    return f"({items[0]},{items[1]});"


def _int_cells_only(monkeypatch):
    """Make max_transport refuse any cell or cap that is not a Python int."""
    real = _kernels.max_transport

    def ints_only(g, cap):
        assert all(type(cell) is int for row in g for cell in row)
        assert all(type(k) is int for k in cap)
        return real(g, cap)

    monkeypatch.setattr(_kernels, "max_transport", ints_only)


def test_rational_kernel_sees_only_ints(monkeypatch):
    _int_cells_only(monkeypatch)
    for seed in range(4):
        r1, r2 = _pair(12, seed, "unit", "rational")
        res = gromov_distance(r1, r2, GromovSpec(norm=1, variant="full"))
        assert isinstance(res.value, Fraction)
        assert all(isinstance(x, Fraction) for x in res.argmin.values)
        assert res.value == _exact_simplex(r1, r2)
        _check_certificate(res, r1, r2)


@pytest.mark.parametrize("n", [5, 9, 14])
def test_rational_d1_mixed_denominators_matches_the_rational_simplex(monkeypatch, n):
    _int_cells_only(monkeypatch)
    lengths = ["1/3", "2/7", "5/11", "1", "3/2", "13/17"]
    for seed in range(3):
        r1, r2 = (
            tree_to_semimetric(parse_newick(_fraction_tree(n, s, lengths), mode="rational"))
            for s in (seed, seed + 50)
        )
        assert len({x.denominator for x in r1.table.flat}) > 2
        res = gromov_distance(r1, r2, GromovSpec(norm=1))
        assert res.value == _exact_simplex(r1, r2)
        _check_certificate(res, r1, r2)
        ok, _ = quadrangle_feasible(r1, r2, res.argmin)
        assert ok


def test_rational_d1_above_int64_matches_the_rational_simplex(monkeypatch):
    # entries above 2**61 take core._as_integers' Python-int path
    _int_cells_only(monkeypatch)
    for seed in range(3):
        r1, r2 = (
            tree_to_semimetric(random_binary_tree(8, s, "unit", "rational")).scaled(
                Fraction(2**70 + 1, 3)
            )
            for s in (seed, seed + 100)
        )
        assert r1.table.max() > 2**61
        res = gromov_distance(r1, r2, GromovSpec(norm=1))
        assert res.value == _exact_simplex(r1, r2)
        _check_certificate(res, r1, r2)
        g = (_gaps(r1, r2)).tolist()
        assert res.value == Fraction(_brute_assignment(g)) / 2


def test_unit_caps_match_the_hungarian_kernel():
    # the former kernel's permutation, potentials and step count, so every
    # unweighted cell stays as it was: random float, int and tied tables,
    # and the gap tables of tree pairs
    rng = np.random.default_rng(13)
    tables = []
    for n in (1, 2, 3, 5, 8, 12, 30):
        for _ in range(4):
            tables.append(rng.random((n, n)).tolist())
            tables.append(rng.integers(0, 50, (n, n)).tolist())
            tables.append(rng.integers(0, 3, (n, n)).tolist())
    for n, kind in ((12, "unit"), (24, "unit"), (50, "uniform01")):
        for seed in range(3):
            g = _gaps(*_pair(n, seed, kind))
            tables.append((g.astype(int) if kind == "unit" else g).tolist())
    for g in tables:
        n = len(g)
        assert _permutation(*_kernels.max_transport(g, [1] * n)) == orc.max_assignment(g)


def _fraction_weights(n, seed):
    rng = np.random.default_rng(seed)
    return [Fraction(int(rng.integers(1, 12)), int(rng.choice([1, 2, 3, 5, 7]))) for _ in range(n)]


@pytest.mark.parametrize("n", [5, 12, 24])
def test_weighted_rational_d1_matches_the_fraction_simplex(monkeypatch, n):
    _int_cells_only(monkeypatch)
    lengths = ["1/3", "2/7", "5/11", "1", "3/2", "13/17"]
    r1, r2 = (
        tree_to_semimetric(parse_newick(_fraction_tree(n, s, lengths), mode="rational"))
        for s in (n, n + 50)
    )
    w = _fraction_weights(n, n)
    assert len({x.denominator for x in w}) > 2
    res = gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=w))
    assert res.method == "assignment"
    assert res.value == _exact_simplex(r1, r2, w)
    _check_certificate(res, r1, r2, w)


def test_weighted_d1_rational_matches_float():
    # the kernel on the exact data against the float simplex on its twin
    lengths = ["1/3", "2/7", "5/11", "1", "3/2", "13/17"]
    for seed in range(2):
        r1, r2 = (
            tree_to_semimetric(parse_newick(_fraction_tree(24, s, lengths), mode="rational"))
            for s in (seed, seed + 50)
        )
        w = _fraction_weights(24, seed)
        exact = gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=w))
        approx = gromov_distance(
            r1.to_float(), r2.to_float(), GromovSpec(norm=1, taxon_weights=[float(x) for x in w])
        )
        assert (exact.method, approx.method) == ("assignment", "dual")
        assert float(exact.value) == pytest.approx(approx.value, rel=1e-12)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_large_weighted_d1_matches_highs(n):
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    r1, r2 = _pair(n, n + 2, "uniform01")
    w = np.random.default_rng(n).uniform(0.5, 2.0, n)
    i1, i2, b = _pair_arrays(r1, r2)
    m = len(b)
    rows = np.concatenate([np.arange(m), np.arange(m)])
    A = sparse.csr_matrix((np.ones(2 * m), (rows, np.concatenate([i1, i2]))), shape=(m, n))
    want = optimize.linprog(w, A_ub=-A, b_ub=-b, bounds=(0, None), method="highs")
    assert want.status == 0
    res = gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=list(w)))
    assert res.method == "dual"
    assert res.value == pytest.approx(want.fun, rel=1e-9)
    _check_certificate(res, r1, r2, list(w))


def test_unit_rational_lp_on_fractions_equals_brute_force():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        for _ in range(10):
            g = np.full((n, n), Fraction(0), dtype=object)
            for i in range(n):
                for j in range(i + 1, n):
                    g[i, j] = g[j, i] = Fraction(int(rng.integers(0, 30)), int(rng.choice([1, 3, 7, 11])))
            res = solve_lp(LinearProgram.from_sparse(None, g, mode="rational"))
            assert res.value == Fraction(_brute_assignment(g.tolist())) / 2
            assert res.certificate["duality_gap"] == 0
            assert all(isinstance(x, Fraction) for x in res.argmin)


def test_solve_assignment_validates_its_table():
    # the gap table, for both constructors and the LP in both modes: one
    # case per check, each naming the offending entry
    builders = [
        lambda g: LinearProgram.from_sparse(None, g),
        lambda g: LinearProgram.from_sparse(None, g, mode="rational"),
        lambda g: QuadraticProgram.from_sparse(None, g),
    ]
    good = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert solve_lp(builders[1](good)).value == 2
    half, nan, inf = Fraction(1, 2), float("nan"), float("inf")
    cases = [
        ([[0, 1, 2]], r"must be square, got shape \(1, 3\)"),
        ([0, 1], r"must be square, got shape \(2,\)"),
        ([[0, "x"], ["x", 0]], "must hold numbers"),
        ([[0, 1, 2], [1, 0, 1], [2, 1 + half, 0]], r"must be symmetric \(entry 1, 2\)"),
        ([[0, 1], [1, half]], r"must have a zero diagonal \(entry 1\)"),
        ([[0, 1, -2], [1, 0, 1], [-2, 1, 0]], r"must be nonnegative \(entry 0, 2\)"),
    ]
    for build in builders:
        build(good)
        for g, message in cases:
            with pytest.raises(ValidationError, match="gap table " + message):
                build(g)
    for build in builders[::2]:  # float mode only
        for g, message in [
            ([[0, nan], [nan, 0]], r"must be finite \(entry 0, 1\)"),
            ([[0, 1], [1, inf]], r"must be finite \(entry 1, 1\)"),
        ]:
            with pytest.raises(ValidationError, match="gap table " + message):
                build(g)


def test_scaled_audit_reports_data_units():
    # the program x0 + x1 >= 1/3, audited times 6 on integers
    b, x = np.array([2], dtype=object), np.array([0, 0], dtype=object)
    with pytest.raises(TreegromovError, match=r"pair row \(0,1\) by 1/3; .*max\|b\|=0\.333333"):
        solver._certify("assignment", np.array([0]), np.array([1]), b, np.array([2, 2]),
                        x, [1], "rational", scales=(6, 2))
    # x = (1/6, 1/6) meets it; y = 1 gives the gap 1/3 - 1/3 = 0
    xs = np.array([1, 1], dtype=object)
    _, _, value, gap = solver._certify("assignment", np.array([0]), np.array([1]), b,
                                       np.array([2, 2]), xs, [2], "rational", scales=(6, 2))
    assert value == Fraction(1, 3) and gap == 0 and isinstance(gap, Fraction)


@pytest.mark.parametrize("n", [100, 200, 400])
def test_large_d1_matches_scipy_assignment(n):
    optimize = pytest.importorskip("scipy.optimize")
    r1, r2 = _pair(n, n + 1, "uniform01")
    g = _gaps(r1, r2)
    rows, cols = optimize.linear_sum_assignment(g, maximize=True)
    want = float(g[rows, cols].sum()) / 2
    res = gromov_distance(r1, r2, GromovSpec(norm=1))
    assert res.value == pytest.approx(want, rel=1e-10)
    _check_certificate(res, r1, r2)


def test_kernel_is_exact_against_brute_force():
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        for _ in range(20):
            g = [[Fraction(int(a), int(b)) for a, b in zip(ra, rb)]
                 for ra, rb in zip(rng.integers(0, 9, (n, n)), rng.integers(1, 4, (n, n)))]
            perm, u, v, _ = _permutation(*_kernels.max_transport(g, [1] * n))
            assert sorted(perm) == list(range(n))
            assert sum(g[i][perm[i]] for i in range(n)) == _brute_assignment(g)
            assert sum(u) + sum(v) == _brute_assignment(g)
            assert all(u[i] + v[j] >= g[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_maximally_degenerate_unit_ties(mode):
    for n in range(2, 16):
        labs = [f"t{i:02d}" for i in range(n)]
        ones = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        r1 = semimetric_from_table(labs, (2 * ones).tolist(), mode=mode)
        r2 = semimetric_from_table(labs, ones.tolist(), mode=mode)
        # every gap is 1: any derangement is a maximum assignment
        res = gromov_distance(r1, r2, GromovSpec(norm=1))
        assert res.value == Fraction(n, 2)
        _check_certificate(res, r1, r2)
        same = gromov_distance(r1, r1, GromovSpec(norm=1))
        assert same.value == 0 and all(x == 0 for x in same.argmin.values)
    for n in range(4, 15):
        c1, c2 = (tree_to_semimetric(random_caterpillar(n, s, mode)) for s in (n, n + 50))
        res = gromov_distance(c1, c2, GromovSpec(norm=1))
        assert res.value == _reference(c1, c2)
        _check_certificate(res, c1, c2)


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize(
    "bend,match",
    [("lower_u", "pair row"), ("raise_u", "duality gap"), ("negative", "below zero")],
)
def test_bad_potentials_raise(monkeypatch, mode, bend, match):
    real = _kernels.max_transport

    def bent(g, cap):
        sent, u, v, steps = real(g, cap)
        if bend == "lower_u":
            u = [x - 1 for x in u]
        elif bend == "raise_u":
            u = [x + 1 for x in u]
        else:  # x_0 = -1, every other x up by 100: the pair rows still hold
            u = [-v[0] - 2] + [x + 200 for x in u[1:]]
        return sent, u, v, steps

    monkeypatch.setattr(_kernels, "max_transport", bent)
    r1, r2 = _pair(6, 1, "unit", mode)
    with pytest.raises(TreegromovError, match=match):
        gromov_distance(r1, r2, GromovSpec(norm=1))


def test_nan_potentials_fail_closed(monkeypatch):
    real = _kernels.max_transport

    def nan_u(g, cap):
        sent, u, v, steps = real(g, cap)
        return sent, [float("nan")] * len(u), v, steps

    monkeypatch.setattr(_kernels, "max_transport", nan_u)
    r1, r2 = _pair(6, 1, "uniform01")
    with pytest.raises(TreegromovError):
        gromov_distance(r1, r2, GromovSpec(norm=1))

"""LP and QP solvers against hand instances and enumeration oracles.

Programs are gap tables g (symmetric, zero diagonal, no negative entry)
with taxon weights: one pair row x_i + x_j >= g[i, j] for every pair
i < j, which is the only program the distance computations assemble; a
zero entry is a pair whose row x >= 0 already implies.  The oracles
re-solve the same systems by brute force.
"""

from fractions import Fraction

import numpy as np
import pytest

import _oracles as orc
from treegromov import (
    LinearProgram,
    QuadraticProgram,
    TreegromovError,
    ValidationError,
    random_binary_tree,
    solve_lp,
    solve_qp,
    tree_to_semimetric,
)
from treegromov import _kernels, solver
from treegromov.core import RTOL
from treegromov.gromov import _gap_table, _pair_arrays
from treegromov.solver import STATUS_OPTIMAL


def _table(n, *entries, exact=False):
    """The n x n gap table with g[i, j] = g[j, i] = v for each (i, j, v)
    and 0 elsewhere; of Fractions if exact, else of floats."""
    g = np.full((n, n), Fraction(0), dtype=object) if exact else np.zeros((n, n))
    for i, j, v in entries:
        g[i, j] = g[j, i] = v
    return g


def _random_table(rng, n, value, exact=False):
    """A random gap table on n variables, entries from value(); about a
    third of the pairs are 0."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _table(n, *((i, j, value()) for i, j in pairs if rng.random() < 0.7), exact=exact)


def _dense(g):
    """The pair rows of g as a dense matrix A and right-hand side b."""
    n = len(g)
    iu, ju = np.triu_indices(n, 1)
    A = np.zeros((len(iu), n))
    A[np.arange(len(iu)), iu] = 1.0
    A[np.arange(len(iu)), ju] = 1.0
    return A, np.asarray(g, dtype=float)[iu, ju]


# ---------------------------------------------------------------------------
# LP, hand instances


def test_lp_single_pair_row():
    # min x0 + x1 subject to x0 + x1 >= 4, on both float routes
    for weights, method in ((None, "assignment"), ([1, 1], "dual")):
        res = solve_lp(LinearProgram.from_sparse(weights, _table(2, (0, 1, 4.0))))
        assert res.status == STATUS_OPTIMAL and res.method == method
        assert res.value == pytest.approx(4.0)
        assert res.argmin.sum() == pytest.approx(4.0)


def test_lp_rational_exact():
    # x0 carries both rows at cost 1, cheaper than x1 + x2 at cost 5
    lp = LinearProgram.from_sparse(
        [Fraction(1), Fraction(2), Fraction(3)],
        _table(3, (0, 1, Fraction(7, 3)), (0, 2, Fraction(1, 2)), exact=True),
        mode="rational",
    )
    res = solve_lp(lp)
    assert res.status == STATUS_OPTIMAL
    assert isinstance(res.value, Fraction)
    assert res.value == Fraction(7, 3)  # all weight on x0
    assert list(res.argmin) == [Fraction(7, 3), 0, 0]
    assert res.certificate["duality_gap"] == 0


def test_lp_methods_agree():
    # both float routes (the simplex with weights, the transportation
    # kernel without) against two independent references: the dense
    # two-phase primal simplex and vertex enumeration
    rng = np.random.default_rng(11)
    for _ in range(20):
        nv = int(rng.integers(2, 5))
        g = _random_table(rng, nv, lambda: float(rng.integers(1, 8)))
        A, b = _dense(g)
        for c, method in ((rng.integers(1, 5, size=nv).astype(float), "dual"), (None, "assignment")):
            res = solve_lp(LinearProgram.from_sparse(c, g))
            c = np.ones(nv) if c is None else c
            primal, _ = orc.lp_primal_oracle(c, A, b)
            assert res.status == STATUS_OPTIMAL and res.method == method
            assert res.value == pytest.approx(primal, abs=1e-8)
            want, _ = orc.lp_vertex_oracle(c, A, b)
            assert res.value == pytest.approx(want, abs=1e-8)


def test_primal_oracle_handles_negative_objective():
    # the reference keeps the general-objective case the package dropped:
    # min -x0 - x1 over x0 + x1 <= 3, x0 <= 2 is -3
    A = np.array([[-1.0, -1.0], [-1.0, 0.0]])
    value, x = orc.lp_primal_oracle([-1.0, -1.0], A, [-3.0, -2.0])
    assert value == pytest.approx(-3.0)
    want, _ = orc.lp_vertex_oracle([-1.0, -1.0], A, [-3.0, -2.0])
    assert value == pytest.approx(want)


def test_lp_oracle_sweep_with_bounds():
    # the bounds x <= max b never bind at a pair-row optimum (each x_j > 0
    # is tight on a row, so x_j <= b of that row): enumeration with them
    # finds the package's optimum, which meets them
    rng = np.random.default_rng(23)
    for _ in range(15):
        nv = int(rng.integers(2, 5))
        g = _random_table(rng, nv, lambda: float(rng.integers(1, 9)))
        c = rng.integers(1, 4, size=nv).astype(float)
        res = solve_lp(LinearProgram.from_sparse(c, g))
        A, b = _dense(g)
        upper = [b.max()] * nv
        want, _ = orc.lp_vertex_oracle(c, A, b, upper)
        assert res.value == pytest.approx(want, abs=1e-8)
        assert (np.asarray(res.argmin) <= b.max() + 1e-9).all()


def test_lp_rational_oracle_sweep():
    rng = np.random.default_rng(5)
    for _ in range(8):
        nv = int(rng.integers(2, 4))
        g = _random_table(
            rng, nv, lambda: Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 4))), exact=True
        )
        iu, ju = np.triu_indices(nv, 1)
        dense_rows = [[Fraction(int(k in (i, j))) for k in range(nv)] for i, j in zip(iu, ju)]
        c = [Fraction(int(rng.integers(1, 4))) for _ in range(nv)]
        for weights in (c, None):
            res = solve_lp(LinearProgram.from_sparse(weights, g, mode="rational"))
            want, _ = orc.lp_vertex_oracle_exact(weights or [1] * nv, dense_rows, g[iu, ju])
            assert res.status == STATUS_OPTIMAL
            assert res.value == want  # exact equality, no tolerance


def test_rational_lp_matches_the_fraction_simplex():
    # the transportation route against the former Fraction dual simplex:
    # zero gaps, zero costs and a single variable
    lp = LinearProgram.from_sparse([1, 1], _table(2, (0, 1, 2), exact=True), mode="rational")
    assert list(solve_lp(lp).certificate["dual"]) == [1]
    rng = np.random.default_rng(41)
    for _ in range(60):
        nv = int(rng.integers(1, 7))
        g = _random_table(
            rng, nv, lambda: Fraction(int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 5]))),
            exact=True,
        )
        c = [Fraction(int(rng.integers(0, 4)), int(rng.choice([1, 2, 3]))) for _ in range(nv)]
        res = solve_lp(LinearProgram.from_sparse(c, g, mode="rational"))
        iu, ju = np.triu_indices(nv, 1)
        want, _, _ = orc.exact_dual_simplex(iu, ju, g[iu, ju], c)
        assert res.method == "assignment"
        assert res.value == want and res.certificate["duality_gap"] == 0
        # with weights, the dual sits only on rows with b > 0
        y = res.certificate["dual"]
        assert all(yk == 0 for yk, bk in zip(y, g[iu, ju]) if bk == 0)


def test_lp_degenerate_instances_terminate():
    # many coinciding right-hand sides produce degenerate vertices; the
    # pivot rule must still terminate and agree with enumeration
    rng = np.random.default_rng(97)
    g = np.full((4, 4), 2.0) - 2.0 * np.eye(4)
    A, b = _dense(g)
    for _ in range(10):
        c = rng.integers(1, 3, size=4).astype(float)
        res = solve_lp(LinearProgram.from_sparse(c, g))
        want, _ = orc.lp_vertex_oracle(c, A, b)
        assert res.value == pytest.approx(want, abs=1e-9)


def test_lp_sparse_row_validation():
    # the taxon weights, for both constructors and the LP in both modes:
    # one case per check, each naming the offending entry (the gap-table
    # checks are in test_assignment.test_solve_assignment_validates_its_table)
    builders = [
        lambda w, g: LinearProgram.from_sparse(w, g),
        lambda w, g: LinearProgram.from_sparse(w, g, mode="rational"),
        lambda w, g: QuadraticProgram.from_sparse(w, g),
    ]
    good = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    half, nan, inf = Fraction(1, 2), float("nan"), float("inf")
    for build in builders:
        build([1, 2, 3], good)
        for w, message in [
            ([1, 2], "need 3 weights, got 2"),
            ([1, -half, 1], r"weights must be (nonnegative|strictly positive) \(entry 1\)"),
        ]:
            with pytest.raises(ValidationError, match=message):
                build(w, good)
    for build in builders[::2]:  # float mode only
        for w, message in [
            ([1, nan, 1], r"weights must be finite \(entry 1\)"),
            ([1, 1, inf], r"weights must be finite \(entry 2\)"),
        ]:
            with pytest.raises(ValidationError, match=message):
                build(w, good)


def test_lp_rejects_negative_objective():
    # the simplex's all-slack start needs c >= 0, so the LP refuses a
    # negative weight in both modes; a zero weight is a cost of nothing
    good = [[0, 1], [1, 0]]
    assert solve_lp(LinearProgram.from_sparse([0, 1], good)).value == 0
    assert solve_lp(LinearProgram.from_sparse([0, 1], good, mode="rational")).value == 0
    with pytest.raises(ValidationError, match=r"nonnegative \(entry 1\)"):
        LinearProgram.from_sparse([1.0, -0.5], good)
    with pytest.raises(ValidationError, match=r"nonnegative \(entry 1\)"):
        LinearProgram.from_sparse([1, Fraction(-1, 2)], good, mode="rational")


def test_lp_mode_guards():
    # a rational program refuses float entries and float weights, and the
    # mode must be one of the two
    good = [[0, 1], [1, 0]]
    for w, g in ((None, [[0, 0.5], [0.5, 0]]), ([1.0, 1], good)):
        with pytest.raises(ValidationError, match="does not accept float"):
            LinearProgram.from_sparse(w, g, mode="rational")
    with pytest.raises(ValidationError, match="mode must be one of"):
        LinearProgram.from_sparse(None, good, mode="exact")


def test_qp_rejects_bad_weights():
    good = [[0, 1], [1, 0]]
    for bad in (0, -1):
        with pytest.raises(ValidationError, match=r"strictly positive \(entry 0\)"):
            QuadraticProgram.from_sparse([bad, 1], good)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=r"weights must be finite \(entry 0\)"):
            QuadraticProgram.from_sparse([bad, 1], good)


def test_program_arrays_are_read_only_copies():
    g = _table(2, (0, 1, 4.0))
    lp = LinearProgram.from_sparse([1, 1], g)
    assert lp.n_rows == 1 and lp.n_vars == 2
    for arr in (lp.g, lp.i1, lp.i2, lp.b, lp.c):
        with pytest.raises(ValueError):
            arr[0] = 0
    g[0, 1] = g[1, 0] = 5.0  # the caller's table stays writable and detached
    assert lp.b[0] == 4.0 and lp.g[0, 1] == 4.0
    assert LinearProgram.from_sparse(None, g.tolist()).c is None


def test_rational_rows_stay_fractions():
    # the exact route divides; int entries must not turn that into float
    # division
    lp = LinearProgram.from_sparse(None, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], mode="rational")
    assert all(isinstance(x, Fraction) for x in lp.b)
    res = solve_lp(lp)
    assert res.value == Fraction(3, 2) and isinstance(res.value, Fraction)
    assert all(isinstance(x, Fraction) for x in res.argmin)
    assert all(isinstance(y, Fraction) for y in res.certificate["dual"])


# ---------------------------------------------------------------------------
# LP audit


def _bent_dual(monkeypatch, bend):
    """Make the float simplex hand solve_lp a changed result."""
    real = solver._lp_float_dual

    def bent(*args):
        out = real(*args)
        bend(out)
        return out

    monkeypatch.setattr(solver, "_lp_float_dual", bent)


def _bent_answer(monkeypatch, mode, dy=(0, 0, 0), dx0=0):
    """Hand solve_lp an answer to _audit_lp moved by dy on the dual (one
    entry per row) and by dx0 on x[0]: the float simplex's, or in rational
    mode the transportation kernel's, whose flow F and potentials give
    y = (F_ij + F_ji) / 2 and x = (u + v) / 2 here (both lcms are 1)."""
    if mode == "float":

        def bend(out):
            out["y"] += np.array(dy, dtype=float)
            out["x"][0] += dx0

        _bent_dual(monkeypatch, bend)
        return
    real = _kernels.max_transport

    def bent(g, cap):
        sent, u, v, steps = real(g, cap)
        for (i, j), d in zip(((0, 1), (0, 2), (1, 2)), dy):
            sent[j][i] = sent[j].get(i, 0) + int(2 * d)
        u[0] += int(2 * dx0)
        return sent, u, v, steps

    monkeypatch.setattr(_kernels, "max_transport", bent)


def _audit_lp(mode):
    # min x0 + x1 + x2 over the three pair rows >= 2: x = (1, 1, 1), and
    # y = (1/2, 1/2, 1/2) puts A^T y = 1 on every variable; explicit
    # weights send float mode to the simplex
    g = [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
    return LinearProgram.from_sparse([1, 1, 1], g, mode=mode)


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize(
    "where,match",
    [(0, r"dual puts y\[0\] = -.* below zero"), (1, r"dual breaks A\^T y <= c at x\[1\]")],
)
def test_lp_audit_rejects_a_bent_dual(monkeypatch, mode, where, match):
    # lowering y0 by 1 and raising y1 by 1 breaks y >= 0; raising y2, on
    # the pair (1, 2), by 1/2 puts A^T y = 3/2 on x1, above its cost 1
    lp = _audit_lp(mode)
    assert solve_lp(lp).certificate["dual"][0] == Fraction(1, 2)
    _bent_answer(monkeypatch, mode, dy=[(-1, 1, 0), (0, 0, Fraction(1, 2))][where])
    with pytest.raises(TreegromovError, match=match + ".*rows=3, vars=3, max.b.=2"):
        solve_lp(lp)


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_lp_audit_rejects_a_bent_primal(monkeypatch, mode):
    route = "simplex" if mode == "float" else "assignment"
    _bent_answer(monkeypatch, mode, dx0=-1)
    with pytest.raises(TreegromovError, match=rf"{route} breaks the pair row \(0,1\) by 1"):
        solve_lp(_audit_lp(mode))


def test_lp_duality_gap_check_fails_closed_on_nan(monkeypatch):
    # half the dual keeps y >= 0 and A^T y <= c but opens a gap of half
    # the value; a NaN in the dual fails the audit too
    def halve(out):
        out["y"] /= 2

    _bent_dual(monkeypatch, halve)
    with pytest.raises(TreegromovError, match="duality gap 1.5 exceeds"):
        solve_lp(_audit_lp("float"))

    def nan(out):
        out["y"][:] = float("nan")

    _bent_dual(monkeypatch, nan)
    with pytest.raises(TreegromovError, match="below zero"):
        solve_lp(_audit_lp("float"))


def test_lp_dual_unbounded_kernel_result_raises(monkeypatch):
    # a pair-row LP is always feasible, so only rounding could make the
    # simplex report its dual unbounded; that is an error, not a status
    real = _kernels.dual_simplex

    def unbounded(*args):
        _, *rest = real(*args)
        return (_kernels.LP_DUAL_UNBOUNDED, *rest)

    monkeypatch.setattr(_kernels, "dual_simplex", unbounded)
    with pytest.raises(TreegromovError, match="dual unbounded.*rows=3, vars=3, max.b.=2"):
        solve_lp(_audit_lp("float"))


def test_lp_iteration_limit_is_loud(monkeypatch):
    real = _kernels.dual_simplex

    def one_step(i1, i2, b, c_rhs, bland_after, tol, max_iter):
        return real(i1, i2, b, c_rhs, bland_after, tol, 1)

    monkeypatch.setattr(_kernels, "dual_simplex", one_step)
    with pytest.raises(TreegromovError, match=r"simplex iteration limit.*rows=3, vars=3, max.b.=2"):
        solve_lp(_audit_lp("float"))


# ---------------------------------------------------------------------------
# LP, the carried basis inverse against the former dense kernel


def _weighted_rows(n, scale):
    """The pair rows of D1 between two uniform(0,1] trees on n taxa, both
    scaled, and taxon weights uniform in [0.5, 2]."""
    r1, r2 = (
        tree_to_semimetric(random_binary_tree(n, s, "uniform01")).scaled(scale)
        for s in (n, n + 100)
    )
    return (*_pair_arrays(r1, r2), np.random.default_rng(n).uniform(0.5, 2.0, n))


def _check_inverse(i1, i2, basis, binv):
    """2 binv is integral with entries of size at most 1 (so binv has
    entries in {0, +-1/2, +-1}), and binv inverts the basis exactly."""
    n = len(binv)
    assert (2 * binv == np.round(2 * binv)).all()
    assert np.abs(binv).max() <= 1
    assert (binv @ orc.dense_basis(i1, i2, basis, n) == np.eye(n)).all()


def _certified_value(i1, i2, b, c, status, basis, xB, pi):
    """The value of a kernel's optimal basis, after solve_lp's audit."""
    assert status == _kernels.LP_OPTIMAL
    m = len(b)
    y = np.zeros(m)
    y[basis[basis < m]] = xB[basis < m]
    return solver._certify("simplex", i1, i2, b, c, -pi, y, "float")[2]


@pytest.mark.parametrize("n", [20, 60, 120])
def test_carried_inverse_matches_the_dense_kernel(n):
    # the same pricing on an exact inverse: the optima agree with the
    # former kernel's, both certify, and the final inverse is exact
    for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1):
        i1, i2, b, c = rows = _weighted_rows(n, scale)
        args = (*rows, solver.BLAND_AFTER, RTOL, 100_000)
        status, basis, _, xB, pi, binv = _kernels.dual_simplex(*args)
        new = _certified_value(i1, i2, b, c, status, basis, xB, pi)
        _check_inverse(i1, i2, basis, binv)
        status, basis, _, xB, pi = orc.dense_dual_simplex(*args)
        old = _certified_value(i1, i2, b, c, status, basis, xB, pi)
        assert new == pytest.approx(old, rel=1e-12), scale


def test_carried_inverse_is_exact_at_every_pivot():
    # a run cut off after k pivots returns the basis and inverse it holds
    i1, i2, b, c = _weighted_rows(20, 1.0)
    status, _, iters, *_ = _kernels.dual_simplex(
        i1, i2, b, c, solver.BLAND_AFTER, RTOL, 1000
    )
    assert status == _kernels.LP_OPTIMAL and iters > 20
    for k in range(1, iters):
        status, basis, _, _, _, binv = _kernels.dual_simplex(
            i1, i2, b, c, solver.BLAND_AFTER, RTOL, k
        )
        assert status == _kernels.LP_ITER_LIMIT
        _check_inverse(i1, i2, basis, binv)


# ---------------------------------------------------------------------------
# QP


def test_qp_projection_onto_halfspace():
    # min x0^2 + x1^2 with x0 + x1 >= 2: projection of the origin is (1, 1)
    for weights in (None, [1, 1]):
        res = solve_qp(QuadraticProgram.from_sparse(weights, _table(2, (0, 1, 2.0))))
        assert res.status == STATUS_OPTIMAL
        assert res.value == pytest.approx(2.0)
        assert np.allclose(res.argmin, [1.0, 1.0], atol=1e-9)
        assert res.kkt_residual <= 1e-9


def test_qp_weighted():
    # min 4 x0^2 + x1^2 with x0 + x1 >= 5: optimum at (1, 4)
    res = solve_qp(QuadraticProgram.from_sparse([4, 1], _table(2, (0, 1, 5.0))))
    assert np.allclose(res.argmin, [1.0, 4.0], atol=1e-8)
    assert res.value == pytest.approx(20.0)


def test_qp_inactive_constraints_stay_at_zero():
    res = solve_qp(QuadraticProgram.from_sparse([1, 1, 1], _table(3, (0, 1, 2.0))))
    assert res.argmin[2] == pytest.approx(0.0, abs=1e-12)


def test_qp_oracle_sweep():
    # the solver adds no x >= 0 rows, the oracle gets them explicitly, and
    # both must find the same optimum, which is >= 0
    rng = np.random.default_rng(31)
    for _ in range(15):
        nv = int(rng.integers(2, 5))
        g = _random_table(rng, nv, lambda: float(rng.integers(1, 7)))
        w = rng.integers(1, 4, size=nv).astype(float)
        A, b = _dense(g)
        want, _ = orc.qp_face_oracle(w, np.vstack([A, np.eye(nv)]), np.concatenate([b, np.zeros(nv)]))
        res = solve_qp(QuadraticProgram.from_sparse(w, g))
        assert res.status == STATUS_OPTIMAL
        assert res.value == pytest.approx(want, abs=1e-8)
        assert (res.argmin >= 0).all()
        assert res.kkt_residual <= 1e-9


def test_qp_clips_small_negative_entries_and_counts_them(monkeypatch):
    # x2 sits in no row with b > 0; a kernel value just below zero counts
    # in the primal KKT part and comes back clipped to 0
    real = _kernels.active_set_qp

    def nudged(*args):
        status, x, work, iters = real(*args)
        x = np.array(x)
        x[2] = -1e-13
        return status, x, work, iters

    monkeypatch.setattr(_kernels, "active_set_qp", nudged)
    res = solve_qp(QuadraticProgram.from_sparse([1, 1, 1], _table(3, (0, 1, 2.0))))
    assert res.argmin[2] == 0.0 and not np.signbit(res.argmin[2])
    assert res.certificate["kkt"]["primal"] == 1e-13


def test_qp_kkt_audit_fails_closed_on_nan(monkeypatch):
    real = _kernels.active_set_qp

    def nan_point(*args):
        status, x, work, iters = real(*args)
        return status, np.full_like(x, np.nan), work, iters

    monkeypatch.setattr(_kernels, "active_set_qp", nan_point)
    with pytest.raises(TreegromovError, match="KKT audit"):
        solve_qp(QuadraticProgram.from_sparse([1, 1], _table(2, (0, 1, 2.0))))


def test_qp_certificate_multipliers():
    res = solve_qp(QuadraticProgram.from_sparse([1, 1], _table(2, (0, 1, 2.0))))
    mu = res.certificate["multipliers"]
    assert (np.asarray(mu) >= -1e-12).all()
    kkt = res.certificate["kkt"]
    for key in ("stationarity", "primal", "dual", "complementarity"):
        assert kkt[key] <= 1e-9


def test_qp_kkt_audit_rejects_a_perturbed_optimum(monkeypatch):
    # a kernel that returns a point off its own working-set optimum must not
    # be reported as optimal
    real = _kernels.active_set_qp

    def perturbed(*args):
        status, x, work, iters = real(*args)
        return status, x + 1e-3, work, iters

    monkeypatch.setattr(_kernels, "active_set_qp", perturbed)
    qp = QuadraticProgram.from_sparse([1, 1], _table(2, (0, 1, 2.0)))
    with pytest.raises(TreegromovError, match="KKT audit.*rows=1, vars=2, max.b.=2"):
        solve_qp(qp)


def test_qp_iteration_limit_is_loud(monkeypatch):
    real = _kernels.active_set_qp

    def one_step(i1, i2, b, w, tol, max_iter):
        return real(i1, i2, b, w, tol, 1)

    monkeypatch.setattr(_kernels, "active_set_qp", one_step)
    qp = QuadraticProgram.from_sparse([1, 1, 1], _table(3, (0, 1, 2.0), (1, 2, 3.0)))
    with pytest.raises(TreegromovError, match=r"active-set QP iteration limit.*rows=3, vars=3, max.b.=3"):
        solve_qp(qp)


def test_qp_kernel_without_a_finite_step_raises(monkeypatch):
    def no_step(i1, i2, b, w, tol, max_iter):
        return _kernels.QP_NO_STEP, np.zeros(len(w)), np.zeros(0, dtype=np.int64), 1

    monkeypatch.setattr(_kernels, "active_set_qp", no_step)
    qp = QuadraticProgram.from_sparse([1, 1], _table(2, (0, 1, 2.0)))
    with pytest.raises(TreegromovError, match=r"active-set QP found a row with no finite step.*rows=1, vars=2"):
        solve_qp(qp)


@pytest.mark.parametrize("n", [20, 40, 80])
@pytest.mark.parametrize("weighted", [False, True])
def test_qp_matches_the_primal_active_set_reference(n, weighted):
    # the former kernel (tests/_oracles.py) on D2 programs of uniform(0,1]
    # tree pairs at scales where it solves: equal values and argmins, and
    # equal working sets wherever the optimum is nondegenerate (every tight
    # row in the working set, every multiplier clearly positive)
    rng = np.random.default_rng(n + weighted)
    compared = 0
    for seed in (1, 2):
        base = [
            tree_to_semimetric(random_binary_tree(n, seed=t, weight_model="uniform01"))
            for t in (seed, seed + 100)
        ]
        w = rng.uniform(0.5, 2.0, size=n) if weighted else np.ones(n)
        for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1):
            pair = [r.scaled(scale) for r in base]
            i1, i2, b = _pair_arrays(*pair)
            res = solve_qp(QuadraticProgram.from_sparse(w, _gap_table(*pair)))
            ok, x_ref, work_ref, _ = orc.primal_active_set_qp(i1, i2, b, w, orc.primal_start(b, n))
            assert ok
            x_ref = np.maximum(x_ref, 0.0)
            top = float(np.abs(b).max())
            assert res.value == pytest.approx(float(np.dot(w, x_ref * x_ref)), rel=1e-10)
            assert np.abs(res.argmin - x_ref).max() <= 1e-9 * top
            _, _, work, _ = _kernels.active_set_qp(i1, i2, b, w, 1e-11, 10**6)
            mu = res.certificate["multipliers"]
            tight = set(np.flatnonzero(res.argmin[i1] + res.argmin[i2] - b <= 1e-9 * top))
            assert set(work) <= tight and set(work_ref) <= tight
            if tight == set(work) and (mu[work] > 1e-6 * top).all():
                assert sorted(work_ref) == sorted(work), (seed, scale)
                compared += 1
    # from n = 40 on, these tree pairs have more tight rows than independent
    # ones, so their optimum is degenerate and only the subset check applies
    assert compared >= 5 or n >= 40


# ---------------------------------------------------------------------------
# results


def test_opt_result_with_updates():
    res = solve_lp(LinearProgram.from_sparse([1, 1], _table(2, (0, 1, 2.0))))
    res2 = res.with_updates(value=99.0)
    assert res2.value == 99.0
    assert res.value == pytest.approx(2.0)
    assert res2.method == res.method

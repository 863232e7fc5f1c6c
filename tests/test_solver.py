"""LP and QP solvers against hand instances and enumeration oracles.

Programs are given as row arrays (i1, v1, i2, v2, b): row r reads
v1[r] x[i1[r]] + v2[r] x[i2[r]] >= b[r], with i2[r] = -1 for a single
entry and coefficients +-1 (+1 only for QPs), which covers every program
the distance computations assemble; the oracles re-solve the same systems
by brute force.  An upper bound x_j <= u_j is the row -x_j >= -u_j.
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
    solve_lp,
    solve_qp,
)
from treegromov import _kernels
from treegromov.solver import STATUS_INFEASIBLE, STATUS_OPTIMAL


def _rows(*rows):
    """Row arrays from (i1, v1, i2, v2, b) tuples, one per row."""
    return tuple(list(col) for col in zip(*rows))


def _dense_from_rows(rows, nvars):
    i1, v1, i2, v2, b = (np.asarray(col) for col in rows)
    A = np.zeros((len(b), nvars))
    r = np.arange(len(b))
    A[r, i1] = v1
    two = i2 >= 0
    A[r[two], i2[two]] += v2[two]
    return A, b.astype(float)


# ---------------------------------------------------------------------------
# LP, hand instances


def test_lp_single_pair_row():
    # min x0 + x1 subject to x0 + x1 >= 4
    lp = LinearProgram.from_sparse([1, 1], _rows((0, 1, 1, 1, 4)))
    res = solve_lp(lp)
    assert res.status == STATUS_OPTIMAL
    assert res.value == pytest.approx(4.0)
    assert res.argmin.sum() == pytest.approx(4.0)


def test_lp_upper_bounds_bind():
    # min x0 + 3*x1 with x0 + x1 >= 4, x0 <= 1: forced to (1, 3)
    lp = LinearProgram.from_sparse([1, 3], _rows((0, 1, 1, 1, 4), (0, -1, -1, 0, -1)))
    res = solve_lp(lp)
    assert res.value == pytest.approx(10.0)
    assert res.argmin[0] == pytest.approx(1.0)


def test_lp_infeasible_farkas():
    # x0 >= 3 and -x0 >= -1 cannot hold together
    rows = _rows((0, 1, -1, 0, 3), (0, -1, -1, 0, -1))
    lp = LinearProgram.from_sparse([1], rows)
    res = solve_lp(lp)
    assert res.status == STATUS_INFEASIBLE
    ray = np.asarray(res.certificate["farkas_ray"], dtype=float)
    A, b = _dense_from_rows(rows, 1)
    assert (ray >= -1e-12).all()
    assert (A.T @ ray <= 1e-9).all()
    assert b @ ray > 1e-9


def test_lp_rational_exact():
    lp = LinearProgram.from_sparse(
        [Fraction(1), Fraction(2)],
        _rows((0, 1, 1, 1, Fraction(7, 3)), (0, 1, 1, -1, Fraction(-1, 2))),
        mode="rational",
    )
    res = solve_lp(lp)
    assert res.status == STATUS_OPTIMAL
    assert isinstance(res.value, Fraction)
    assert res.value == Fraction(7, 3)  # all weight on x0
    assert res.certificate["duality_gap"] == 0


def test_lp_rational_infeasible_exact_farkas():
    lp = LinearProgram.from_sparse(
        [Fraction(1)],
        _rows((0, 1, -1, 0, Fraction(3)), (0, -1, -1, 0, Fraction(-1))),
        mode="rational",
    )
    res = solve_lp(lp)
    assert res.status == STATUS_INFEASIBLE
    ray = res.certificate["farkas_ray"]
    assert all(y >= 0 for y in ray)


def test_lp_mode_guards():
    lp = LinearProgram.from_sparse([1.0], _rows((0, 1, -1, 0, 1.5)))
    with pytest.raises(ValidationError):
        solve_lp(lp, mode="rational")


def test_lp_rejects_negative_objective():
    rows = _rows((0, 1, -1, 0, 1))
    with pytest.raises(ValidationError, match="nonnegative objective"):
        solve_lp(LinearProgram.from_sparse([1.0, -0.5], rows))
    lp = LinearProgram.from_sparse([Fraction(1), Fraction(-1, 2)], rows, mode="rational")
    for mode in ("rational", "float"):
        with pytest.raises(ValidationError, match="nonnegative objective"):
            solve_lp(lp, mode=mode)


def test_lp_methods_agree():
    # the dual-route simplex against two independent references: the dense
    # two-phase primal simplex and vertex enumeration
    rng = np.random.default_rng(11)
    for _ in range(20):
        nv = int(rng.integers(2, 5))
        rows = []
        for _ in range(int(rng.integers(2, 7))):
            i, j = rng.choice(nv, size=2, replace=False)
            rows.append((i, 1, j, int(rng.choice([-1, 1])), float(rng.integers(-4, 8))))
        rows = _rows(*rows)
        c = rng.integers(1, 5, size=nv).astype(float)
        res = solve_lp(LinearProgram.from_sparse(list(c), rows))
        A, b = _dense_from_rows(rows, nv)
        primal, _ = orc.lp_primal_oracle(c, A, b)
        assert (res.status == STATUS_OPTIMAL) == (primal is not None)
        if res.status == STATUS_OPTIMAL:
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
    rng = np.random.default_rng(23)
    for _ in range(15):
        nv = int(rng.integers(2, 5))
        rows = []
        for _ in range(int(rng.integers(2, 6))):
            i, j = rng.choice(nv, size=2, replace=False)
            rows.append((i, 1, j, 1, float(rng.integers(1, 9))))
        upper = [float(rng.integers(3, 9)) for _ in range(nv)]
        A, b = _dense_from_rows(_rows(*rows), nv)
        rows = _rows(*rows, *((j, -1, -1, 0, -u) for j, u in enumerate(upper)))
        c = rng.integers(1, 4, size=nv).astype(float)
        lp = LinearProgram.from_sparse(list(c), rows)
        res = solve_lp(lp)
        want, _ = orc.lp_vertex_oracle(c, A, b, upper)
        if want is None:
            assert res.status == STATUS_INFEASIBLE
        else:
            assert res.status == STATUS_OPTIMAL
            assert res.value == pytest.approx(want, abs=1e-8)
            assert (np.asarray(res.argmin) <= np.asarray(upper) + 1e-9).all()


def test_lp_rational_oracle_sweep():
    rng = np.random.default_rng(5)
    for _ in range(8):
        nv = int(rng.integers(2, 4))
        rows = []
        dense_rows = []
        for _ in range(int(rng.integers(2, 5))):
            i, j = sorted(rng.choice(nv, size=2, replace=False))
            rhs = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 4)))
            rows.append((i, 1, j, 1, rhs))
            dense = [Fraction(0)] * nv
            dense[i] = dense[j] = Fraction(1)
            dense_rows.append(dense)
        rows = _rows(*rows)
        c = [Fraction(int(rng.integers(1, 4))) for _ in range(nv)]
        lp = LinearProgram.from_sparse(c, rows, mode="rational")
        res = solve_lp(lp)
        want, _ = orc.lp_vertex_oracle_exact(c, dense_rows, rows[4])
        assert res.status == STATUS_OPTIMAL
        assert res.value == want  # exact equality, no tolerance


def test_lp_degenerate_instances_terminate():
    # many coinciding right-hand sides produce degenerate vertices; the
    # pivot rule must still terminate and agree with enumeration
    rng = np.random.default_rng(97)
    for _ in range(10):
        nv = 4
        rows = _rows(*((i, 1, j, 1, 2.0) for i in range(nv) for j in range(i + 1, nv)))
        c = rng.integers(1, 3, size=nv).astype(float)
        lp = LinearProgram.from_sparse(list(c), rows)
        res = solve_lp(lp)
        A, b = _dense_from_rows(rows, nv)
        want, _ = orc.lp_vertex_oracle(c, A, b)
        assert res.value == pytest.approx(want, abs=1e-9)


def test_lp_sparse_row_validation():
    # one case per check; each names the offending entry
    good = _rows((0, 1, 1, 1, 1), (1, -1, -1, 0, -2))
    LinearProgram.from_sparse([1, 1], good)
    cases = [
        (good[:1] + ([1, 2],) + good[2:], "coefficients must be"),
        (good[:3] + ([0, 0],) + good[4:], "coefficients must be"),
        (([0, 5],) + good[1:], "out of range"),
        (good[:2] + ([1, -2],) + good[3:], "out of range"),
        (good[:2] + ([0, -1],) + good[3:], "appears twice"),
        (good[:4] + ([1.0],), "equal length"),
        (good[:4] + ([1.0, float("nan")],), "rhs must be finite"),
        (good[:4] + ([1.0, float("inf")],), "rhs must be finite"),
        (([0.0, 1.0],) + good[1:], "indices must be integers"),
        (good[:4], "five arrays"),
    ]
    for rows, message in cases:
        with pytest.raises(ValidationError, match=message):
            LinearProgram.from_sparse([1, 1], rows)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=r"objective must be finite \(entry 1\)"):
            LinearProgram.from_sparse([1, bad], good)


def test_program_arrays_are_read_only_copies():
    i1, v1, i2, v2, b = (np.array(col) for col in _rows((0, 1, 1, 1, 4.0)))
    lp = LinearProgram.from_sparse([1, 1], (i1, v1, i2, v2, b))
    assert lp.n_rows == 1
    for arr in (lp.i1, lp.v1, lp.i2, lp.v2, lp.b, lp.c):
        with pytest.raises(ValueError):
            arr[0] = 0
    b[0] = 5.0  # the caller's arrays stay writable and detached
    assert lp.b[0] == 4.0


def test_rational_rows_stay_fractions():
    # the exact route divides; int rows must not turn that into float
    # division
    lp = LinearProgram.from_sparse(
        [1, 1], _rows((0, 1, 1, 1, 1), (0, -1, -1, 0, -1), (1, -1, -1, 0, -1)),
        mode="rational",
    )
    assert all(isinstance(x, Fraction) for x in lp.b)
    res = solve_lp(lp)
    assert res.value == 1 and isinstance(res.value, Fraction)
    assert all(isinstance(x, Fraction) for x in res.argmin)


# ---------------------------------------------------------------------------
# QP


def test_qp_projection_onto_halfspace():
    # min x0^2 + x1^2 with x0 + x1 >= 2: projection of the origin is (1, 1)
    qp = QuadraticProgram.from_sparse([1, 1], _rows((0, 1, 1, 1, 2)))
    res = solve_qp(qp)
    assert res.status == STATUS_OPTIMAL
    assert res.value == pytest.approx(2.0)
    assert np.allclose(res.argmin, [1.0, 1.0], atol=1e-9)
    assert res.kkt_residual <= 1e-9


def test_qp_weighted():
    # min 4 x0^2 + x1^2 with x0 + x1 >= 5: optimum at (1, 4)
    qp = QuadraticProgram.from_sparse([4, 1], _rows((0, 1, 1, 1, 5)))
    res = solve_qp(qp)
    assert np.allclose(res.argmin, [1.0, 4.0], atol=1e-8)
    assert res.value == pytest.approx(20.0)


def test_qp_inactive_constraints_stay_at_zero():
    qp = QuadraticProgram.from_sparse([1, 1, 1], _rows((0, 1, 1, 1, 2), (0, 1, 2, 1, -5)))
    res = solve_qp(qp)
    assert res.argmin[2] == pytest.approx(0.0, abs=1e-12)


def test_qp_oracle_sweep():
    # +1 rows only: the solver adds no x >= 0 rows, the oracle gets them
    # explicitly, and both must find the same optimum, which is >= 0
    rng = np.random.default_rng(31)
    for _ in range(15):
        nv = int(rng.integers(2, 5))
        rows = []
        for _ in range(int(rng.integers(2, 7))):
            i, j = rng.choice(nv, size=2, replace=False)
            if rng.random() < 0.25:
                j = -1
            rows.append((i, 1, j, 1 if j >= 0 else 0, float(rng.integers(-3, 7))))
        rows = _rows(*rows)
        w = rng.integers(1, 4, size=nv).astype(float)
        qp = QuadraticProgram.from_sparse(list(w), rows)
        A, b = _dense_from_rows(rows, nv)
        want, _ = orc.qp_face_oracle(w, np.vstack([A, np.eye(nv)]), np.concatenate([b, np.zeros(nv)]))
        res = solve_qp(qp)
        assert res.status == STATUS_OPTIMAL
        assert res.value == pytest.approx(want, abs=1e-8)
        assert (res.argmin >= 0).all()
        assert res.kkt_residual <= 1e-9


def test_qp_rejects_coefficients_other_than_plus_one():
    for rows in (_rows((0, 1, 1, 1, 2), (0, 1, 1, -1, 2)), _rows((0, 1, 1, 1, 2), (1, -1, -1, 0, -3))):
        with pytest.raises(ValidationError, match=r"coefficients must be \+1 \(entry 1\)"):
            QuadraticProgram.from_sparse([1, 1], rows)


def test_qp_single_entry_rows_start_at_max_b(monkeypatch):
    # x0 >= 4 breaks the constant start max(b)/2 = 2, so the start is the
    # constant max(b) = 4; the LP simplex never runs
    from treegromov import solver

    def no_lp(*args):
        raise AssertionError("solve_qp called the LP simplex")

    monkeypatch.setattr(solver, "_lp_float_dual", no_lp)
    res = solve_qp(QuadraticProgram.from_sparse([1, 1, 1], _rows((0, 1, -1, 0, 4), (1, 1, 2, 1, 1))))
    assert np.allclose(res.argmin, [4.0, 0.5, 0.5], atol=1e-9)
    assert res.value == pytest.approx(16.5)


def test_qp_clips_small_negative_entries_and_counts_them(monkeypatch):
    # x2 sits in no row; a kernel value just below zero counts in the
    # primal KKT part and comes back clipped to 0
    real = _kernels.active_set_qp

    def nudged(*args):
        status, x, work, iters = real(*args)
        x = np.array(x)
        x[2] = -1e-13
        return status, x, work, iters

    monkeypatch.setattr(_kernels, "active_set_qp", nudged)
    res = solve_qp(QuadraticProgram.from_sparse([1, 1, 1], _rows((0, 1, 1, 1, 2))))
    assert res.argmin[2] == 0.0 and not np.signbit(res.argmin[2])
    assert res.certificate["kkt"]["primal"] == 1e-13


def test_qp_kkt_audit_fails_closed_on_nan(monkeypatch):
    real = _kernels.active_set_qp

    def nan_point(*args):
        status, x, work, iters = real(*args)
        return status, np.full_like(x, np.nan), work, iters

    monkeypatch.setattr(_kernels, "active_set_qp", nan_point)
    with pytest.raises(TreegromovError, match="KKT audit"):
        solve_qp(QuadraticProgram.from_sparse([1, 1], _rows((0, 1, 1, 1, 2))))


def test_lp_duality_gap_check_fails_closed_on_nan(monkeypatch):
    from treegromov import solver

    real = solver._lp_float_dual

    def nan_dual(*args):
        out = real(*args)
        out["dual_value"] = float("nan")
        return out

    monkeypatch.setattr(solver, "_lp_float_dual", nan_dual)
    with pytest.raises(TreegromovError, match="duality gap"):
        solve_lp(LinearProgram.from_sparse([1, 1], _rows((0, 1, 1, 1, 4))))


def test_qp_certificate_multipliers():
    qp = QuadraticProgram.from_sparse([1, 1], _rows((0, 1, 1, 1, 2)))
    res = solve_qp(qp)
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
    qp = QuadraticProgram.from_sparse([1, 1], _rows((0, 1, 1, 1, 2)))
    with pytest.raises(TreegromovError, match="KKT audit.*rows=1, vars=2, max.b.=2"):
        solve_qp(qp)


def test_qp_rejects_bad_weights():
    with pytest.raises(ValidationError):
        QuadraticProgram.from_sparse([0, 1], _rows((0, 1, -1, 0, 1)))
    with pytest.raises(ValidationError):
        QuadraticProgram.from_sparse([-1, 1], _rows((0, 1, -1, 0, 1)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=r"weights must be finite \(entry 0\)"):
            QuadraticProgram.from_sparse([bad, 1], _rows((0, 1, -1, 0, 1)))


# ---------------------------------------------------------------------------
# results


def test_opt_result_with_updates():
    lp = LinearProgram.from_sparse([1], _rows((0, 1, -1, 0, 2)))
    res = solve_lp(lp)
    res2 = res.with_updates(value=99.0)
    assert res2.value == 99.0
    assert res.value == pytest.approx(2.0)
    assert res2.method == res.method

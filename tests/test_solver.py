"""LP and QP solvers against hand instances and enumeration oracles.

The sparse row format carries at most two entries per row with
coefficients +-1, which covers every program the distance computations
assemble; the oracles re-solve the same systems by brute force.
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
from treegromov.solver import GE, LE, STATUS_INFEASIBLE, STATUS_OPTIMAL


def _dense_from_rows(rows, nvars):
    A = np.zeros((len(rows), nvars))
    b = np.zeros(len(rows))
    for r, (entries, rel, rhs) in enumerate(rows):
        sign = 1.0 if rel == GE else -1.0
        for j, coef in entries:
            A[r, j] = sign * coef
        b[r] = sign * float(rhs)
    return A, b


# ---------------------------------------------------------------------------
# LP, hand instances


def test_lp_single_pair_row():
    # min x0 + x1 subject to x0 + x1 >= 4
    lp = LinearProgram.from_sparse([1, 1], [([(0, 1), (1, 1)], GE, 4)])
    res = solve_lp(lp)
    assert res.status == STATUS_OPTIMAL
    assert res.value == pytest.approx(4.0)
    assert res.argmin.sum() == pytest.approx(4.0)


def test_lp_upper_bounds_bind():
    # min x0 + 3*x1 with x0 + x1 >= 4, x0 <= 1: forced to (1, 3)
    lp = LinearProgram.from_sparse(
        [1, 3], [([(0, 1), (1, 1)], GE, 4)], upper=[1, None]
    )
    res = solve_lp(lp)
    assert res.value == pytest.approx(10.0)
    assert res.argmin[0] == pytest.approx(1.0)


def test_lp_le_rows():
    # min -x0 is unboundedly negative without the cap x0 <= 7
    lp = LinearProgram.from_sparse([1], [([(0, 1)], LE, 7)])
    res = solve_lp(lp)
    assert res.value == pytest.approx(0.0)  # c >= 0 keeps it at zero
    lp = LinearProgram.from_sparse([1], [([(0, 1)], GE, 7)])
    assert solve_lp(lp).value == pytest.approx(7.0)


def test_lp_infeasible_farkas():
    # x0 >= 3 and x0 <= 1 cannot hold together
    lp = LinearProgram.from_sparse([1], [([(0, 1)], GE, 3), ([(0, 1)], LE, 1)])
    res = solve_lp(lp)
    assert res.status == STATUS_INFEASIBLE
    ray = np.asarray(res.certificate["farkas_ray"], dtype=float)
    A, b = _dense_from_rows([([(0, 1)], GE, 3), ([(0, 1)], LE, 1)], 1)
    assert (ray >= -1e-12).all()
    assert (A.T @ ray <= 1e-9).all()
    assert b @ ray > 1e-9


def test_lp_rational_exact():
    lp = LinearProgram.from_sparse(
        [Fraction(1), Fraction(2)],
        [
            ([(0, 1), (1, 1)], GE, Fraction(7, 3)),
            ([(0, 1), (1, -1)], GE, Fraction(-1, 2)),
        ],
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
        [([(0, 1)], GE, Fraction(3)), ([(0, 1)], LE, Fraction(1))],
        mode="rational",
    )
    res = solve_lp(lp)
    assert res.status == STATUS_INFEASIBLE
    ray = res.certificate["farkas_ray"]
    assert all(y >= 0 for y in ray)


def test_lp_mode_guards():
    lp = LinearProgram.from_sparse([1.0], [([(0, 1)], GE, 1.5)])
    with pytest.raises(ValidationError):
        solve_lp(lp, mode="rational")


def test_lp_rejects_negative_objective():
    rows = [([(0, 1)], GE, 1)]
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
            entries = [(int(i), 1), (int(j), int(rng.choice([-1, 1])))]
            rows.append((entries, GE, float(rng.integers(-4, 8))))
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
            rows.append(([(int(i), 1), (int(j), 1)], GE, float(rng.integers(1, 9))))
        upper = [float(rng.integers(3, 9)) for _ in range(nv)]
        c = rng.integers(1, 4, size=nv).astype(float)
        lp = LinearProgram.from_sparse(list(c), rows, upper=upper)
        res = solve_lp(lp)
        A, b = _dense_from_rows(rows, nv)
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
            rows.append(([(int(i), 1), (int(j), 1)], GE, rhs))
            dense = [Fraction(0)] * nv
            dense[i] = dense[j] = Fraction(1)
            dense_rows.append(dense)
        c = [Fraction(int(rng.integers(1, 4))) for _ in range(nv)]
        lp = LinearProgram.from_sparse(c, rows, mode="rational")
        res = solve_lp(lp)
        want, _ = orc.lp_vertex_oracle_exact(c, dense_rows, [r[2] for r in rows])
        assert res.status == STATUS_OPTIMAL
        assert res.value == want  # exact equality, no tolerance


def test_lp_degenerate_instances_terminate():
    # many coinciding right-hand sides produce degenerate vertices; the
    # pivot rule must still terminate and agree with enumeration
    rng = np.random.default_rng(97)
    for _ in range(10):
        nv = 4
        rows = [
            ([(i, 1), (j, 1)], GE, 2.0)
            for i in range(nv)
            for j in range(i + 1, nv)
        ]
        c = rng.integers(1, 3, size=nv).astype(float)
        lp = LinearProgram.from_sparse(list(c), rows)
        res = solve_lp(lp)
        A, b = _dense_from_rows(rows, nv)
        want, _ = orc.lp_vertex_oracle(c, A, b)
        assert res.value == pytest.approx(want, abs=1e-9)


def test_lp_sparse_row_validation():
    with pytest.raises(ValidationError):
        LinearProgram.from_sparse([1, 1], [([(0, 2)], GE, 1)])  # coef not +-1
    with pytest.raises(ValidationError):
        LinearProgram.from_sparse([1, 1], [([(0, 1), (0, 1)], GE, 1)])  # dup index
    with pytest.raises(ValidationError):
        LinearProgram.from_sparse([1, 1], [([(5, 1)], GE, 1)])  # out of range
    with pytest.raises(ValidationError):
        LinearProgram.from_sparse([1, 1], [([], GE, 1)])  # empty row


# ---------------------------------------------------------------------------
# QP


def test_qp_projection_onto_halfspace():
    # min x0^2 + x1^2 with x0 + x1 >= 2: projection of the origin is (1, 1)
    qp = QuadraticProgram.from_sparse([1, 1], [([(0, 1), (1, 1)], GE, 2)])
    res = solve_qp(qp)
    assert res.status == STATUS_OPTIMAL
    assert res.value == pytest.approx(2.0)
    assert np.allclose(res.argmin, [1.0, 1.0], atol=1e-9)
    assert res.kkt_residual <= 1e-9


def test_qp_weighted():
    # min 4 x0^2 + x1^2 with x0 + x1 >= 5: optimum at (1, 4)
    qp = QuadraticProgram.from_sparse([4, 1], [([(0, 1), (1, 1)], GE, 5)])
    res = solve_qp(qp)
    assert np.allclose(res.argmin, [1.0, 4.0], atol=1e-8)
    assert res.value == pytest.approx(20.0)


def test_qp_inactive_constraints_stay_at_zero():
    qp = QuadraticProgram.from_sparse(
        [1, 1, 1], [([(0, 1), (1, 1)], GE, 2), ([(0, 1), (2, 1)], GE, -5)]
    )
    res = solve_qp(qp)
    assert res.argmin[2] == pytest.approx(0.0, abs=1e-12)


def test_qp_upper_bounds():
    qp = QuadraticProgram.from_sparse(
        [1, 1], [([(0, 1), (1, 1)], GE, 6)], upper=[1, None]
    )
    res = solve_qp(qp)
    assert np.allclose(res.argmin, [1.0, 5.0], atol=1e-8)


def test_qp_oracle_sweep():
    rng = np.random.default_rng(31)
    for _ in range(15):
        nv = int(rng.integers(2, 5))
        rows = []
        for _ in range(int(rng.integers(2, 7))):
            i, j = rng.choice(nv, size=2, replace=False)
            entries = [(int(i), 1), (int(j), int(rng.choice([-1, 1])))]
            rows.append((entries, GE, float(rng.integers(-3, 7))))
        w = rng.integers(1, 4, size=nv).astype(float)
        qp = QuadraticProgram.from_sparse(list(w), rows)
        A, b = _dense_from_rows(rows, nv)
        want, _ = orc.qp_face_oracle(w, A, b)
        res = solve_qp(qp)
        if want is None:
            assert res.status == STATUS_INFEASIBLE
            continue
        assert res.status == STATUS_OPTIMAL
        assert res.value == pytest.approx(want, abs=1e-8)
        assert res.kkt_residual <= 1e-9


def test_qp_certificate_multipliers():
    qp = QuadraticProgram.from_sparse([1, 1], [([(0, 1), (1, 1)], GE, 2)])
    res = solve_qp(qp)
    mu = res.certificate["multipliers"]
    assert (np.asarray(mu) >= -1e-12).all()
    kkt = res.certificate["kkt"]
    for key in ("stationarity", "primal", "dual", "complementarity"):
        assert kkt[key] <= 1e-9


def test_qp_rejects_bad_weights():
    with pytest.raises(ValidationError):
        QuadraticProgram.from_sparse([0, 1], [([(0, 1)], GE, 1)])
    with pytest.raises(ValidationError):
        QuadraticProgram.from_sparse([-1, 1], [([(0, 1)], GE, 1)])


# ---------------------------------------------------------------------------
# results


def test_opt_result_with_updates():
    lp = LinearProgram.from_sparse([1], [([(0, 1)], GE, 2)])
    res = solve_lp(lp)
    res2 = res.with_updates(value=99.0)
    assert res2.value == 99.0
    assert res.value == pytest.approx(2.0)
    assert res2.method == res.method

"""Scale equivariance of every float verdict and value.

Multiplying a float64 table by 2^k is exact for the k used here, and every
float tolerance in the package is core.RTOL times the largest |entry| of
what it judges, with no floor.  So every verdict on 2^k x must equal the
verdict on x, and every value and argmin must be exactly 2^k times its
value at x.  The regressions below were wrong answers below data scale 1
while the tolerances had a floor of 1.
"""

import re

import numpy as np
import pytest

from treegromov import (
    LinearProgram,
    DeltaVector,
    GromovSpec,
    TreegromovError,
    ValidationError,
    WeightedGraph,
    amalgamate,
    check_extendable,
    four_point_check,
    gromov_distance,
    quadrangle_feasible,
    random_binary_tree,
    realize_extension,
    semimetric_from_table,
    semimetric_to_csv,
    solve_lp,
    tree_to_semimetric,
)
from treegromov.cli import main
from treegromov.core import axiom_witnesses
from treegromov.gromov import _gap_table, _pair_arrays
from treegromov.solver import _certify

KS = (-60, -40, -20, 20, 40, 60)
LABS = [f"t{i}" for i in range(8)]


def _tree_table(seed, n=8):
    return tree_to_semimetric(random_binary_tree(n, seed, "uniform01")).table.copy()


def _sm(tab, validate=True):
    return semimetric_from_table(LABS[: len(tab)], tab, validate=validate)


def _construct(tab):
    """(True,) if construction accepts tab, else (False, error class, the
    label pairs its message names)."""
    try:
        _sm(tab)
    except ValidationError as exc:
        return False, type(exc).__name__, re.findall(r"\((\w+),(\w+)\)", str(exc))
    return (True,)


# ---------------------------------------------------------------------------
# distances


@pytest.mark.parametrize(
    "norm,variant", [("1", "lower"), ("1", "full"), ("2", "lower"), ("2", "full"), ("inf", "full")]
)
def test_distances_scale_exactly(norm, variant):
    spec = GromovSpec(norm=norm, variant=variant)
    a, b = _tree_table(1), _tree_table(2)
    for ta, tb in ((a, b), (a, a)):  # the second pair is at scale 0
        base = gromov_distance(_sm(ta), _sm(tb), spec)
        for k in KS:
            f = 2.0**k
            res = gromov_distance(_sm(ta * f), _sm(tb * f), spec)
            assert res.value == base.value * f
            assert np.array_equal(res.argmin.values, base.argmin.values * f)


# ---------------------------------------------------------------------------
# Semimetric construction and validate


def _bad_tables():
    """A tree table and breaks of each axiom, some within tolerance."""
    t = _tree_table(3, 6)
    out = {"tree": t}
    for name, factor in (("asym-out", 1 + 3e-9), ("asym-in", 1 + 0.5e-9)):
        out[name] = t.copy()
        out[name][0, 1] *= factor
    # d(1,2) moved to just above or below its shortest detour
    detour = min(t[1, j] + t[j, 2] for j in (0, 3, 4, 5))
    for name, factor in (("triangle-out", 1 + 5e-9), ("triangle-in", 1 + 0.5e-9)):
        out[name] = t.copy()
        out[name][1, 2] = out[name][2, 1] = detour * factor
    out["negative"] = t.copy()
    out["negative"][2, 3] = out["negative"][3, 2] = -t[2, 3]
    out["diagonal"] = t.copy()
    out["diagonal"][4, 4] = t.max()
    return out


def _validate_lines(tmp_path, capsys, tab):
    p = tmp_path / "t.csv"
    p.write_text(semimetric_to_csv(_sm(tab, validate=False)))
    code = main(["validate", str(p)])
    return code, capsys.readouterr().out


def test_axiom_verdicts_and_witnesses_scale(tmp_path, capsys):
    for name, tab in _bad_tables().items():
        built = _construct(tab)
        witnesses = axiom_witnesses(tab, "float")
        lines = _validate_lines(tmp_path, capsys, tab)
        assert built[0] == (name in ("tree", "asym-in", "triangle-in")), name
        for k in KS:
            scaled = tab * 2.0**k
            assert _construct(scaled) == built, (name, k)
            assert axiom_witnesses(scaled, "float") == witnesses, (name, k)
            assert _validate_lines(tmp_path, capsys, scaled) == lines, (name, k)


def test_four_point_verdict_and_witness_scale():
    t = _tree_table(4)
    bent = t.copy()
    bent[1, 5] = bent[5, 1] = t[1, 5] * 1.5
    for tab, ok in ((t, True), (bent, False)):
        base = four_point_check(_sm(tab, validate=False))
        assert base[0] is ok
        for k in KS:
            assert four_point_check(_sm(tab * 2.0**k, validate=False)) == base


# ---------------------------------------------------------------------------
# feasibility, extensions and the norm-1 audit


def test_quadrangle_feasibility_and_extension_scale():
    a, b = _tree_table(5), _tree_table(6)
    delta = gromov_distance(_sm(a), _sm(b), GromovSpec(norm=1)).argmin.values
    taxa = _sm(a).taxa
    for dv in (delta, delta * (1 - 1e-6), np.zeros(len(delta))):
        base_ok, base_v = quadrangle_feasible(_sm(a), _sm(b), DeltaVector(taxa, dv))
        ext = realize_extension(_sm(a), _sm(b), DeltaVector(taxa, dv)) if base_ok else None
        for k in KS:
            f = 2.0**k
            ok, v = quadrangle_feasible(_sm(a * f), _sm(b * f), DeltaVector(taxa, dv * f))
            assert ok == base_ok
            assert v == [(fam, x, y, amt * f) for fam, x, y, amt in base_v]
            if ext is not None:
                got = realize_extension(_sm(a * f), _sm(b * f), DeltaVector(taxa, dv * f))
                assert np.array_equal(got.semimetric.table, ext.semimetric.table * f)


def test_check_extendable_and_amalgamate_scale():
    edges = [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 2.0), ("c", "d", 0.3)]
    bent = edges[:2] + [("a", "c", 2.0 * (1 + 3e-9))] + edges[3:]
    t = _tree_table(7, 6)
    d1, d2 = t[:4, :4], t[2:, 2:]
    glued = amalgamate(_sm(d1), semimetric_from_table(LABS[2:6], d2)).table
    for k in KS:
        f = 2.0**k
        scaled = [[(u, v, w * f) for u, v, w in es] for es in (edges, bent)]
        assert check_extendable(WeightedGraph("abcd", scaled[0])) == (True, None)
        assert check_extendable(WeightedGraph("abcd", scaled[1])) == (False, scaled[1][2])
        out = amalgamate(_sm(d1 * f), semimetric_from_table(LABS[2:6], d2 * f))
        assert np.array_equal(out.table, glued * f)


def test_amalgamate_rejects_a_disagreeing_shared_pair_at_every_scale():
    # the inputs share a, b and disagree 5x on them; an absolute tolerance
    # of 1e-9 once glued them below that scale
    left = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) * 1e-12
    right = np.array([[0, 5, 3], [5, 0, 3], [3, 3, 0]]) * 1e-12
    for k in (-60, -40, 0, 40):
        f = 2.0**k
        d1 = semimetric_from_table(["a", "b", "c"], left * f)
        d2 = semimetric_from_table(["a", "b", "d"], right * f)
        with pytest.raises(ValidationError, match=r"disagree on the shared pair \(a,b\)"):
            amalgamate(d1, d2)
        agree = right.copy()
        agree[0, 1] = agree[1, 0] = left[0, 1]
        d2 = semimetric_from_table(["a", "b", "d"], agree * f)
        assert amalgamate(d1, d2).dist("c", "d") == d1.dist("c", "a") + d2.dist("a", "d")


def test_norm1_audit_judges_bent_solutions_at_every_scale():
    a, b = _tree_table(8), _tree_table(9)
    res = solve_lp(LinearProgram.from_sparse(None, _gap_table(_sm(a), _sm(b))))
    x, y = np.asarray(res.argmin, dtype=float), res.certificate["dual"]
    top = float(x.max())
    for k in (0,) + KS:
        f = 2.0**k
        i1, i2, g = _pair_arrays(_sm(a * f), _sm(b * f))
        assert _certify("t", i1, i2, g, None, x * f, y, "float")[2] == res.value * f
        bent_x = x.copy()
        bent_x[int(np.argmax(x))] -= 1e-6 * top  # breaks a tight pair row
        with pytest.raises(TreegromovError, match="breaks the pair row"):
            _certify("t", i1, i2, g, None, bent_x * f, y, "float")
        with pytest.raises(TreegromovError, match="duality gap"):
            _certify("t", i1, i2, g, None, x * f, y * (1 - 1e-6), "float")


# ---------------------------------------------------------------------------
# regressions below data scale 1


def test_small_triangle_break_is_rejected():
    tab = np.array([[0, 2e-9, 0.5e-9], [2e-9, 0, 0.5e-9], [0.5e-9, 0.5e-9, 0]])
    with pytest.raises(ValidationError, match=r"triangle inequality violated: d\(t0,t1\)"):
        _sm(tab)


def test_small_non_tree_quartet_is_rejected():
    cycle = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]) * 1e-10
    assert four_point_check(_sm(cycle)) == (False, ("t0", "t1", "t2", "t3"))


def test_zero_delta_is_infeasible_on_a_small_pair():
    a, b = _tree_table(10, 5) * 1e-10, _tree_table(11, 5) * 1e-10
    d1 = gromov_distance(_sm(a), _sm(b), GromovSpec(norm=1)).value
    assert 0 < d1 < 1e-8
    ok, violations = quadrangle_feasible(_sm(a), _sm(b), DeltaVector(_sm(a).taxa, np.zeros(5)))
    assert not ok and violations[0][0] == "pair"


def test_validate_and_dist_agree_on_an_asymmetry_within_tolerance(tmp_path, capsys):
    p = tmp_path / "asym.csv"
    p.write_text("a,b,c\n0,1,2\n1.000000000001,0,1\n2,1,0\n")
    assert main(["validate", str(p)]) == 0
    assert "symmetric: PASS" in capsys.readouterr().out
    assert main(["dist", str(p), str(p)]) == 0
    p.write_text("a,b,c\n0,1,2\n1.00001,0,1\n2,1,0\n")
    assert main(["validate", str(p)]) == 3
    assert "symmetric: FAIL (asymmetric at (a,b))" in capsys.readouterr().out
    assert main(["dist", str(p), str(p)]) == 3


def test_validate_lines_pass_exactly_when_construction_accepts(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    accepted = 0
    for trial in range(40):
        n = int(rng.integers(4, 7))
        tab = _tree_table(100 + trial, n) * 10.0 ** rng.integers(-12, 6)
        for _ in range(int(rng.integers(1, 3))):
            i, j = rng.integers(0, n, size=2)
            step = float(rng.choice([0.3e-9, 3e-9, 1e-3, -2.0]))
            tab[i, j] += step * tab.max()
            if rng.random() < 0.7:
                tab[j, i] = tab[i, j]
        ok = _construct(tab)[0]
        code, out = _validate_lines(tmp_path, capsys, tab)
        axiom_lines = out.splitlines()[:4]
        assert all(line.endswith(": PASS") for line in axiom_lines) == ok, (trial, out)
        accepted += ok
    assert 5 < accepted < 35

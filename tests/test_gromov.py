"""Distance values, invariants, certificates, extension realization."""

import math
from fractions import Fraction

import numpy as np
import pytest

import _oracles as orc
from treegromov import (
    DeltaVector,
    GromovSpec,
    TreegromovError,
    ValidationError,
    dinf_closed_form,
    format_certificate,
    gromov_distance,
    pairwise_matrix,
    parse_newick,
    pd_distance,
    quadrangle_feasible,
    random_binary_tree,
    realize_extension,
    restrict,
    semimetric_from_table,
    solve_lp,
    tree_distance,
    tree_to_semimetric,
)

NORMS = (1, 2, "inf")


def _quartet_pair(mode="float"):
    t1 = parse_newick("((1,2),(3,4));", mode=mode)
    t2 = parse_newick("((1,3),(2,4));", mode=mode)
    return tree_to_semimetric(t1), tree_to_semimetric(t2)


def _random_pair(n, seed, weight_model="unit", mode="float"):
    r1 = tree_to_semimetric(random_binary_tree(n, seed=seed * 2, weight_model=weight_model, mode=mode))
    r2 = tree_to_semimetric(random_binary_tree(n, seed=seed * 2 + 1, weight_model=weight_model, mode=mode))
    return r1, r2


def _dist(r1, r2, norm, variant="full", **kw):
    return gromov_distance(r1, r2, GromovSpec(norm=norm, variant=variant, **kw)).value


# ---------------------------------------------------------------------------
# the quartet example, frozen from the enumeration oracles


def test_quartet_distances_float():
    r1, r2 = _quartet_pair()
    for variant in ("full", "lower"):
        assert _dist(r1, r2, 1, variant) == pytest.approx(2.0, abs=1e-9)
        assert _dist(r1, r2, 2, variant) == pytest.approx(1.0, abs=1e-9)
        assert _dist(r1, r2, "inf", variant) == pytest.approx(0.5, abs=1e-12)
    # independent enumeration gives the same three values
    assert orc.gromov_oracle(r1.table, r2.table, 1, "full") == pytest.approx(2.0)
    assert orc.gromov_oracle(r1.table, r2.table, 2, "full") == pytest.approx(1.0)
    assert orc.gromov_oracle(r1.table, r2.table, "inf", "full") == pytest.approx(0.5)


def test_quartet_distances_rational_exact():
    r1, r2 = _quartet_pair(mode="rational")
    assert _dist(r1, r2, 1) == Fraction(2)
    assert _dist(r1, r2, "inf") == Fraction(1, 2)
    assert orc.gromov_oracle_exact(
        [[int(x) for x in row] for row in r1.table],
        [[int(x) for x in row] for row in r2.table],
        "full",
    ) == Fraction(2)


def test_quartet_bounded_same_values():
    r1, r2 = _quartet_pair()
    for norm in NORMS:
        assert _dist(r1, r2, norm, bounded=True) == pytest.approx(
            _dist(r1, r2, norm), abs=1e-9
        )


def test_tree_distance_wrapper():
    t1 = parse_newick("((1,2),(3,4));")
    t2 = parse_newick("((1,3),(2,4));")
    res = tree_distance(t1, t2, GromovSpec(norm=1))
    assert res.value == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        tree_distance(t1, parse_newick("((1,2),(3,5));"), GromovSpec(norm=1))


# ---------------------------------------------------------------------------
# split-pair closed forms


def _split_pair(na, nb, l1, l2, mode="float"):
    """Two trees differing only in the weight of the same split edge."""
    labs = [f"t{i:02d}" for i in range(na + nb)]
    n = na + nb

    def table(length):
        tab = np.zeros((n, n), dtype=object if mode == "rational" else float)
        for i in range(n):
            for j in range(i + 1, n):
                cross = (i < na) != (j < na)
                d = 2 + (length if cross else 0)
                tab[i, j] = tab[j, i] = d
        return tab

    r1 = semimetric_from_table(labs, table(l1), mode=mode)
    r2 = semimetric_from_table(labs, table(l2), mode=mode)
    return r1, r2


def test_split_closed_forms():
    rng = np.random.default_rng(17)
    for _ in range(25):
        na, nb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        if na + nb < 3:
            continue
        l1, l2 = rng.uniform(0.0, 10.0, size=2)
        r1, r2 = _split_pair(na, nb, l1, l2)
        gap = abs(l1 - l2)
        n = na + nb
        assert _dist(r1, r2, 1) == pytest.approx(min(na, nb) * gap, abs=1e-8)
        assert _dist(r1, r2, 2) == pytest.approx(
            math.sqrt(na * nb / n) * gap, abs=1e-8
        )
        assert _dist(r1, r2, "inf") == pytest.approx(gap / 2, abs=1e-12)
        assert pd_distance(r1, r2, 1) == pytest.approx(na * nb * gap, abs=1e-8)
        assert pd_distance(r1, r2, 2) == pytest.approx(
            math.sqrt(na * nb) * gap, abs=1e-8
        )
        assert pd_distance(r1, r2, "inf") == pytest.approx(gap, abs=1e-12)


def test_split_closed_forms_match_enumeration():
    r1, r2 = _split_pair(2, 3, 1.0, 4.0)
    assert orc.gromov_oracle(r1.table, r2.table, 1, "full") == pytest.approx(6.0)
    assert orc.gromov_oracle(r1.table, r2.table, 2, "full") == pytest.approx(
        math.sqrt(6.0 / 5.0) * 3.0
    )


# ---------------------------------------------------------------------------
# two-edge family, norm-1 closed form


def test_two_edge_family_closed_form():
    """The three-block tree with internal path lengths (l, lp) against the
    same tree at (0, 0): the cheapest relabeling charges l to block A or
    to B+C, and lp to C or to A+B, with the mixed outer/outer choice
    dominated; verified against the LP."""
    rng = np.random.default_rng(40)
    for _ in range(12):
        na, nb, nc = (int(v) for v in rng.integers(1, 5, size=3))
        l, lp = (float(x) for x in rng.uniform(0.2, 5.0, size=2))
        n = na + nb + nc
        block = [0] * na + [1] * nb + [2] * nc
        between = [[0.0, l, l + lp], [l, 0.0, lp], [l + lp, lp, 0.0]]
        labs = [f"x{i:02d}" for i in range(n)]
        base = np.zeros((n, n))
        bumped = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                base[i, j] = base[j, i] = 4.0
                bumped[i, j] = bumped[j, i] = 4.0 + between[block[i]][block[j]]
        r0 = semimetric_from_table(labs, base)
        r1 = semimetric_from_table(labs, bumped)
        want = min(
            na * l + nc * lp,
            na * l + (na + nb) * lp,
            (nb + nc) * l + nc * lp,
        )
        got = _dist(r0, r1, 1, "lower")
        assert got == pytest.approx(want, abs=1e-8)


def test_two_edge_outer_charge_case():
    # sizes (1, 1, 5) with l >> lp make charging lp to A+B cheapest:
    # 1*10 + 2*1 = 12 beats 1*10 + 5*1 = 15
    na, nb, nc, l, lp = 1, 1, 5, 10.0, 1.0
    n = na + nb + nc
    block = [0] * na + [1] * nb + [2] * nc
    between = [[0.0, l, l + lp], [l, 0.0, lp], [l + lp, lp, 0.0]]
    labs = [f"x{i}" for i in range(n)]
    base = np.full((n, n), 22.0)
    bumped = np.full((n, n), 22.0)
    for i in range(n):
        bumped[i, i] = base[i, i] = 0.0
        for j in range(i + 1, n):
            bumped[i, j] = bumped[j, i] = 22.0 + between[block[i]][block[j]]
    r0 = semimetric_from_table(labs, base)
    r1 = semimetric_from_table(labs, bumped)
    assert _dist(r0, r1, 1, "lower") == pytest.approx(12.0, abs=1e-9)


# ---------------------------------------------------------------------------
# invariants over random tree pairs


def test_norm_ordering_chain():
    for seed in range(8):
        n = 6 + (seed % 3)
        r1, r2 = _random_pair(n, seed, weight_model="uniform01")
        for variant in ("full", "lower"):
            d1 = _dist(r1, r2, 1, variant)
            d2 = _dist(r1, r2, 2, variant)
            dinf = _dist(r1, r2, "inf", variant)
            assert d1 >= d2 - 1e-9
            assert d2 >= dinf - 1e-9
            assert dinf >= d2 / math.sqrt(n) - 1e-9
            assert d2 / math.sqrt(n) >= d1 / n - 1e-9


def test_full_dominates_lower():
    for seed in range(8):
        r1, r2 = _random_pair(7, seed + 50, weight_model="uniform01")
        for norm in NORMS:
            assert _dist(r1, r2, norm, "full") >= _dist(r1, r2, norm, "lower") - 1e-9


def test_dinf_equals_half_pd_inf():
    for seed in range(8):
        r1, r2 = _random_pair(8, seed + 100, weight_model="uniform01")
        dinf = _dist(r1, r2, "inf", "full")
        dtinf = _dist(r1, r2, "inf", "lower")
        assert dinf == dtinf
        assert dinf == pytest.approx(pd_distance(r1, r2, "inf") / 2, abs=1e-12)
    r1, r2 = _quartet_pair(mode="rational")
    assert _dist(r1, r2, "inf") == pd_distance(r1, r2, "inf") / 2


def test_pd_comparison_inequalities():
    """Ten two-sided comparisons with the path-difference metrics; the
    norm-2 lower constant is PD2 / sqrt(2(n-1))."""
    for seed in range(8):
        n = 5 + 2 * (seed % 3)
        r1, r2 = _random_pair(n, seed + 200, weight_model="uniform01")
        d1, d2 = _dist(r1, r2, 1), _dist(r1, r2, 2)
        dt1, dt2 = _dist(r1, r2, 1, "lower"), _dist(r1, r2, 2, "lower")
        dinf, dtinf = _dist(r1, r2, "inf"), _dist(r1, r2, "inf", "lower")
        pd1, pd2 = pd_distance(r1, r2, 1), pd_distance(r1, r2, 2)
        pdinf = pd_distance(r1, r2, "inf")
        tol = 1e-8
        assert (n / 2) * pd1 >= d1 - tol
        assert d1 >= dt1 - tol
        assert dt1 >= pd1 / (n - 1) - tol
        assert (math.sqrt(n) / 2) * pd2 >= d2 - tol
        assert d2 >= dt2 - tol
        assert dt2 >= pd2 / math.sqrt(2 * (n - 1)) - tol
        assert dinf == dtinf
        assert dinf == pytest.approx(pdinf / 2, abs=1e-12)


def test_homogeneity_rational_exact():
    r1, r2 = _quartet_pair(mode="rational")
    base1 = _dist(r1, r2, 1)
    baseinf = _dist(r1, r2, "inf")
    for lam in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(10)):
        s1, s2 = r1.scaled(lam), r2.scaled(lam)
        assert _dist(s1, s2, 1) == lam * base1
        assert _dist(s1, s2, "inf") == lam * baseinf


def test_homogeneity_float_norm2():
    r1, r2 = _random_pair(6, 77, weight_model="uniform01")
    base = _dist(r1, r2, 2)
    for lam in (0.5, 2.0, 10.0):
        assert _dist(r1.scaled(lam), r2.scaled(lam), 2) == pytest.approx(
            lam * base, rel=1e-8
        )


def test_subadditivity():
    for seed in range(6):
        n = 6
        ra, _ = _random_pair(n, seed + 300, weight_model="uniform01")
        rb, _ = _random_pair(n, seed + 400, weight_model="uniform01")
        rc, _ = _random_pair(n, seed + 500, weight_model="uniform01")
        for norm in NORMS:
            for variant in ("full", "lower"):
                ab = _dist(ra, rb, norm, variant)
                bc = _dist(rb, rc, norm, variant)
                ac = _dist(ra, rc, norm, variant)
                assert ac <= ab + bc + 1e-8


def test_identity_rational():
    r1, r2 = _quartet_pair(mode="rational")
    for norm in (1, "inf"):
        assert _dist(r1, r1, norm) == 0
        assert _dist(r1, r2, norm) > 0


def test_diameter_bounds_unweighted():
    for seed in range(6):
        n = 7 + (seed % 4)
        r1, r2 = _random_pair(n, seed + 600)
        assert _dist(r1, r2, "inf") <= (n - 2) / 2 + 1e-9
        assert _dist(r1, r2, 2) <= math.sqrt(n) * (n - 2) / 2 + 1e-9
        assert _dist(r1, r2, 1) <= n * (n - 2) / 2 + 1e-9


def test_local_property():
    """Adding a common summand turns the full distance into the lower one:
    D_i(rho + rho', rho + rho'') = Dt_i(rho', rho'')."""
    for seed in range(6):
        n = 6
        rho, _ = _random_pair(n, seed + 700, weight_model="uniform01")
        rp, _ = _random_pair(n, seed + 800, weight_model="uniform01")
        rpp, _ = _random_pair(n, seed + 900, weight_model="uniform01")
        for norm in NORMS:
            lhs = _dist(rho + rp, rho + rpp, norm, "full")
            rhs = _dist(rp, rpp, norm, "lower")
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_local_property_rational_exact():
    r1, r2 = _quartet_pair(mode="rational")
    rho = tree_to_semimetric(parse_newick("((1,4),(2,3));", mode="rational"))
    assert _dist(rho + r1, rho + r2, 1, "full") == _dist(r1, r2, 1, "lower")


def test_bounded_equals_unbounded_sweep():
    for seed in range(6):
        r1, r2 = _random_pair(7, seed + 1000, weight_model="uniform01")
        for norm in NORMS:
            for variant in ("full", "lower"):
                a = _dist(r1, r2, norm, variant)
                b = _dist(r1, r2, norm, variant, bounded=True)
                assert a == pytest.approx(b, abs=1e-9)


def test_monotony_under_restriction():
    for seed in range(6):
        n = 9
        r1, r2 = _random_pair(n, seed + 1100, weight_model="uniform01")
        labs = list(r1.taxa.labels)
        rng = np.random.default_rng(seed)
        keep = sorted(rng.choice(labs, size=6, replace=False))
        s1, s2 = restrict(r1, keep), restrict(r2, keep)
        for norm in NORMS:
            for variant in ("full", "lower"):
                assert (
                    _dist(r1, r2, norm, variant)
                    >= _dist(s1, s2, norm, variant) - 1e-9
                )


# ---------------------------------------------------------------------------
# argmins, feasibility, realization


def test_argmin_is_feasible():
    for seed in range(5):
        r1, r2 = _random_pair(6, seed + 1200, weight_model="uniform01")
        for norm in NORMS:
            for variant in ("full", "lower"):
                res = gromov_distance(r1, r2, GromovSpec(norm=norm, variant=variant))
                ok, violations = quadrangle_feasible(
                    r1, r2, res.argmin
                ) if variant == "full" else (True, [])
                assert ok, violations


def test_quadrangle_feasible_detects_violations():
    r1, r2 = _quartet_pair()
    bad = DeltaVector(r1.taxa, [0.0, 0.0, 0.0, 0.0])
    ok, violations = quadrangle_feasible(r1, r2, bad)
    assert not ok
    assert any(fam == "pair" for fam, _, _, _ in violations)


def test_realize_extension_float_and_rational():
    for mode in ("float", "rational"):
        r1, r2 = _quartet_pair(mode=mode)
        res = gromov_distance(r1, r2, GromovSpec(norm=1, variant="lower"))
        ext = realize_extension(r1, r2, res.argmin)
        assert ext.restrict_left() == r1
        assert ext.restrict_right() == r2
        for lab in r1.taxa.labels:
            got = ext.matched_distance(lab)
            want = res.argmin[lab]
            if mode == "rational":
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-9)


def test_realize_extension_rejects_infeasible_delta():
    r1, r2 = _quartet_pair()
    zero = DeltaVector(r1.taxa, np.zeros(4))
    with pytest.raises(TreegromovError):
        realize_extension(r1, r2, zero)


# ---------------------------------------------------------------------------
# weights, spec plumbing, certificates


def test_taxon_weights_scale_objective():
    r1, r2 = _quartet_pair()
    base1 = _dist(r1, r2, 1)
    res = gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=(2, 2, 2, 2)))
    assert res.value == pytest.approx(2 * base1, abs=1e-9)
    base2 = _dist(r1, r2, 2)
    res = gromov_distance(r1, r2, GromovSpec(norm=2, taxon_weights=(2, 2, 2, 2)))
    assert res.value == pytest.approx(math.sqrt(2) * base2, abs=1e-9)


def test_taxon_weights_against_oracle():
    r1, r2 = _random_pair(5, 1300)
    w = (1.0, 2.0, 1.0, 3.0, 1.0)
    res = gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=w))
    A, b, _ = orc.assemble_dense(r1.table, r2.table, "full")
    want, _ = orc.lp_vertex_oracle(np.array(w), A, b)
    assert res.value == pytest.approx(want, abs=1e-8)


def test_spec_validation():
    with pytest.raises(ValidationError):
        GromovSpec(norm=3)
    with pytest.raises(ValidationError):
        GromovSpec(norm=1, variant="middle")
    with pytest.raises(ValidationError):
        GromovSpec(norm="inf", taxon_weights=(1, 1, 1, 1))
    with pytest.raises(ValidationError):
        GromovSpec(norm=1, taxon_weights=(1, -1))


def test_norm2_rational_rejected():
    r1, r2 = _quartet_pair(mode="rational")
    with pytest.raises(ValidationError):
        _dist(r1, r2, 2)


def test_inf_lp_route_matches_closed_form():
    for seed in range(4):
        r1, r2 = _random_pair(6, seed + 1400, weight_model="uniform01")
        closed = gromov_distance(r1, r2, GromovSpec(norm="inf"))
        for variant in ("full", "lower"):
            lp = solve_lp(orc.epigraph_lp(r1, r2, variant))
            assert lp.value == pytest.approx(closed.value, abs=1e-9)
    r1, r2 = _quartet_pair(mode="rational")
    closed = gromov_distance(r1, r2, GromovSpec(norm="inf"))
    lp = solve_lp(orc.epigraph_lp(r1, r2))
    assert lp.value == closed.value  # exact


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6])
def test_scaled_d2_certifies_or_raises_treegromov_error(seed, scale):
    # Branch lengths in these units once made the active-set QP hit a
    # singular working-set system that escaped as a bare LinAlgError.  A
    # solve must now either certify its optimum or fail with the package's
    # own error; each KKT part is judged relative to the data scale s.
    t1 = random_binary_tree(30, seed=seed, weight_model="uniform01")
    t2 = random_binary_tree(30, seed=seed + 100, weight_model="uniform01")
    r1 = tree_to_semimetric(t1).scaled(scale)
    r2 = tree_to_semimetric(t2).scaled(scale)
    try:
        res = gromov_distance(r1, r2, GromovSpec(norm=2))
    except TreegromovError as exc:
        assert "rows=" in str(exc) and "max|b|=" in str(exc)
        return
    s = max(1.0, float(r1.table.max()), float(r2.table.max()))
    kkt = res.certificate["kkt"]
    for part in ("stationarity", "primal", "dual"):
        assert kkt[part] <= 1e-9 * s, (part, kkt[part])
    assert kkt["complementarity"] <= 1e-9 * s * s


def test_certificates_render():
    r1, r2 = _quartet_pair()
    res = gromov_distance(r1, r2, GromovSpec(norm=1))
    text = format_certificate(res, r1, r2)
    assert "optimal" in text
    assert "delta" in text
    res2 = gromov_distance(r1, r2, GromovSpec(norm=2))
    text2 = format_certificate(res2)
    assert "kkt" in text2.lower()


def test_lp_certificate_duality_gap():
    r1, r2 = _quartet_pair(mode="rational")
    res = gromov_distance(r1, r2, GromovSpec(norm=1))
    assert res.certificate["duality_gap"] == 0


# ---------------------------------------------------------------------------
# matrices


def test_pairwise_matrix_structure():
    trees = [random_binary_tree(6, seed=s) for s in range(4)]
    mat = pairwise_matrix(trees, GromovSpec(norm=1))
    assert mat.shape == (4, 4)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)
    assert (mat[~np.eye(4, dtype=bool)] > 0).all()


def test_pairwise_matrix_rational():
    trees = [random_binary_tree(5, seed=s, mode="rational") for s in range(3)]
    mat = pairwise_matrix(trees, GromovSpec(norm=1))
    assert mat.dtype == object
    assert mat[0, 1] == mat[1, 0]
    assert isinstance(mat[0, 1], Fraction)


# ---------------------------------------------------------------------------
# enumeration cross-check (small but broad; the acceptance gate runs the
# full sweep)


def test_oracle_spot_checks():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        n = int(rng.integers(3, 5))
        d1 = orc.random_integer_semimetric(n, rng)
        d2 = orc.random_integer_semimetric(n, rng)
        labs = [f"t{i}" for i in range(n)]
        r1 = semimetric_from_table(labs, d1.astype(float))
        r2 = semimetric_from_table(labs, d2.astype(float))
        for norm in NORMS:
            for variant in ("full", "lower"):
                want = orc.gromov_oracle(d1, d2, norm, variant)
                got = _dist(r1, r2, norm, variant)
                assert got == pytest.approx(want, abs=1e-8), (n, norm, variant)

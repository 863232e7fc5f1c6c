"""Distance values, invariants, certificates, extension realization."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import _oracles as orc
from treegromov import (
    DeltaVector,
    GromovSpec,
    Semimetric,
    TaxonSet,
    TreegromovError,
    ValidationError,
    WeightedGraph,
    dinf_closed_form,
    format_certificate,
    graph_metric,
    gromov_distance,
    pairwise_matrix,
    parse_newick,
    pd_distance,
    quadrangle_feasible,
    random_binary_tree,
    random_caterpillar,
    realize_extension,
    restrict,
    semimetric_from_table,
    tree_distance,
    tree_to_semimetric,
    write_newick,
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


@pytest.mark.parametrize("norm,mode", [(1, "float"), (1, "rational"), (2, "float")])
def test_bounded_audit_rejects_delta_above_two_dinf(monkeypatch, norm, mode):
    # the bound rows are never built, only audited; a solve that broke one
    # must raise, never be re-solved
    from treegromov import gromov

    name = "solve_lp" if norm == 1 else "solve_qp"
    real = getattr(gromov, name)

    def lifted(prog):
        res = real(prog)
        x = np.array(res.argmin, dtype=object if mode == "rational" else float)
        x[0] = 2 * np.sum(prog.b) + 1  # above max|rho - rho'| = 2 Dinf
        return res.with_updates(argmin=x)

    monkeypatch.setattr(gromov, name, lifted)
    r1, r2 = _quartet_pair(mode)
    spec = dict(norm=norm, variant="lower")
    gromov_distance(r1, r2, GromovSpec(**spec))  # unbounded: nothing audits it
    with pytest.raises(TreegromovError, match="bound row"):
        gromov_distance(r1, r2, GromovSpec(bounded=True, **spec))


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


@pytest.mark.parametrize("values,index", [([math.nan] * 4, 0), ([1.0, math.inf, 1.0, 1.0], 1)])
def test_delta_vector_rejects_non_finite_values(values, index):
    r1, _ = _quartet_pair()
    with pytest.raises(ValidationError, match=f"finite; value {index} is"):
        DeltaVector(r1.taxa, values)


def test_quadrangle_feasible_fails_closed_on_nan():
    # a NaN delta that got past DeltaVector must count as a violation of
    # every row it touches, and realize_extension must refuse it
    r1, r2 = _quartet_pair()
    delta = DeltaVector(r1.taxa, [1.0] * 4)
    object.__setattr__(delta, "values", np.array([math.nan] * 4))
    ok, violations = quadrangle_feasible(r1, r2, delta)
    assert not ok and len(violations) == 12
    with pytest.raises(ValidationError, match="not quadrangle-feasible"):
        realize_extension(r1, r2, delta)


def test_verify_primal_fails_closed_on_nan(monkeypatch):
    # a NaN in the simplex's primal point fails the norm-1 audit
    from treegromov import solver

    real = solver._lp_float_dual

    def nan_x(*args):
        out = real(*args)
        out["x"][0] = math.nan
        return out

    monkeypatch.setattr(solver, "_lp_float_dual", nan_x)
    r1, r2 = _quartet_pair()
    with pytest.raises(TreegromovError, match=r"simplex breaks the pair row \(0,1\) by nan"):
        gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=(1, 1, 1, 1)))


def test_quadrangle_feasible_lists_both_families_pair_major():
    # delta = (9, 0, 0, 0) on the quartet (gaps 1 on (1,2), (1,3), (2,4),
    # (3,4), else 0; totals 6 on (1,4), (2,3), else 5) breaks the
    # difference rows of the pairs with taxon 1 and the pair rows (2,4),
    # (3,4): violations come pair by pair, not family by family
    r1, r2 = _quartet_pair(mode="rational")
    delta = DeltaVector(r1.taxa, [9, 0, 0, 0], "rational")
    ok, violations = quadrangle_feasible(r1, r2, delta)
    assert not ok
    assert violations == [
        ("difference", "1", "2", 4),
        ("difference", "1", "3", 4),
        ("difference", "1", "4", 3),
        ("pair", "2", "4", 1),
        ("pair", "3", "4", 1),
    ]
    assert all(isinstance(amount, Fraction) for *_, amount in violations)


@pytest.mark.parametrize("unit", [Fraction(2, 7), Fraction(10**20, 3)])
def test_quadrangle_feasible_rational_amounts_in_data_units(unit):
    # the comparisons run on integers; the amounts come back in the
    # tables' own units, whatever the scaling (int64 or Python ints)
    r1, r2 = _quartet_pair(mode="rational")
    r1, r2 = r1.scaled(unit), r2.scaled(unit)
    delta = DeltaVector(r1.taxa, [9 * unit, 0, 0, 0], "rational")
    ok, violations = quadrangle_feasible(r1, r2, delta)
    assert not ok
    assert [v[3] for v in violations] == [4 * unit, 4 * unit, 3 * unit, unit, unit]
    assert all(type(v[3]) is Fraction for v in violations)
    # a bump of 1/11, a denominator neither table has, is seen exactly
    delta = DeltaVector(r1.taxa, [5 * unit + Fraction(1, 11), 0, 0, 0], "rational")
    assert quadrangle_feasible(r1, r2, delta)[1][0] == ("difference", "1", "2", Fraction(1, 11))


def test_rational_dinf_and_tight_pair_exact():
    labs = list("abcd")
    t1 = [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    t2 = [[0, Fraction(4, 3), Fraction(7, 3), 3], [Fraction(4, 3), 0, 1, Fraction(5, 3)],
          [Fraction(7, 3), 1, 0, 1], [3, Fraction(5, 3), 1, 0]]
    r1 = semimetric_from_table(labs, t1, mode="rational")
    r2 = semimetric_from_table(labs, t2, mode="rational")
    # the gap 1/3 is attained at (a,b), (a,c) and (b,d); the first in
    # row-major order is the tight pair
    assert dinf_closed_form(r1, r2) == Fraction(1, 6)
    res = gromov_distance(r1, r2, GromovSpec(norm="inf"))
    assert res.value == Fraction(1, 6) and isinstance(res.value, Fraction)
    assert res.certificate["tight_pair"] == ("a", "b")
    assert all(v == Fraction(1, 6) for v in res.argmin.values)


def test_dinf_reads_the_pair_entries_of_a_table_asymmetric_within_rtol():
    # b[1, 0] differs from b[0, 1] by 5e-10, well within RTOL of the
    # entries, so the table validates; the lower triangle's larger gap
    # must not reach Dinf, which every program reads off the pairs i < j
    a = np.full((4, 4), 2.0) - 2.0 * np.eye(4)
    b = a.copy()
    b[0, 1], b[1, 0] = 1.0, 1.0 - 5e-10
    r1 = semimetric_from_table(list("abcd"), a)
    r2 = semimetric_from_table(list("abcd"), b)
    assert dinf_closed_form(r1, r2) == 0.5
    assert dinf_closed_form(r1, r2) == pd_distance(r1, r2, "inf") / 2
    res = gromov_distance(r1, r2, GromovSpec(norm="inf"))
    assert res.value == 0.5 and res.certificate["tight_pair"] == ("a", "b")
    assert all(v == 0.5 for v in res.argmin.values)


def test_d2_kkt_residual_is_relative_to_data_scale():
    # branch lengths near 1e8: complementarity is ~1e2 in absolute terms
    # (it scales with the data squared) while each part is ~1e-16 of scale
    t1 = random_binary_tree(30, seed=1, weight_model="uniform01")
    t2 = random_binary_tree(30, seed=101, weight_model="uniform01")
    r1 = tree_to_semimetric(t1).scaled(1e8)
    r2 = tree_to_semimetric(t2).scaled(1e8)
    for variant in ("full", "lower"):
        res = gromov_distance(r1, r2, GromovSpec(norm=2, variant=variant))
        assert res.kkt_residual <= 1e-9
        assert res.certificate["kkt"]["complementarity"] > 1.0


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


def _carrier_metric(r1, r2, delta):
    """Path metric of the carrier graph by Floyd-Warshall: a rho clique on
    the taxa, a rho' clique on their primed copies, and an edge of weight
    delta_x between x and x'."""
    labs = r1.taxa.labels
    primed = tuple(lab + "'" for lab in labs)
    n = len(labs)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [(labs[i], labs[j], r1.table[i, j]) for i, j in pairs]
    edges += [(primed[i], primed[j], r2.table[i, j]) for i, j in pairs]
    edges += [(labs[i], primed[i], delta.values[i]) for i in range(n)]
    return graph_metric(WeightedGraph(labs + primed, edges, mode=r1.mode))


def _extension_cases(mode):
    """Semimetric pairs with the deltas to extend by: D1 and D2 argmins of
    both variants (D2 in float mode only) and the constant Dinf vector."""
    rng = np.random.default_rng(7)
    pairs = [_random_pair(n, n, "unit", mode) for n in (4, 9, 16)]
    if mode == "float":
        pairs += [_random_pair(n, n, "uniform01") for n in (5, 12, 20)]
        t1, t2 = random_caterpillar(10, 1), random_caterpillar(10, 2)
        pairs.append((tree_to_semimetric(t1), tree_to_semimetric(t2)))
    labs = [f"s{i}" for i in range(7)]
    tables = [orc.random_integer_semimetric(7, rng).tolist() for _ in range(2)]
    pairs.append(tuple(semimetric_from_table(labs, t, mode=mode) for t in tables))
    norms = (1, 2) if mode == "float" else (1,)
    for r1, r2 in pairs:
        for norm in norms:
            for variant in ("lower", "full"):
                spec = GromovSpec(norm=norm, variant=variant)
                yield r1, r2, gromov_distance(r1, r2, spec).argmin
        dinf = dinf_closed_form(r1, r2)
        yield r1, r2, DeltaVector(r1.taxa, [dinf] * len(r1.taxa), mode)


def test_extension_equals_the_carrier_graph_metric_float():
    for r1, r2, delta in _extension_cases("float"):
        ext = realize_extension(r1, r2, delta).semimetric
        want = _carrier_metric(r1, r2, delta)
        assert ext.taxa == want.taxa
        scale = max(1.0, r1.table.max(), r2.table.max())
        assert np.abs(ext.table - want.table).max() <= 1e-12 * scale


def test_extension_equals_the_carrier_graph_metric_rational():
    for r1, r2, delta in _extension_cases("rational"):
        ext = realize_extension(r1, r2, delta).semimetric
        assert ext == _carrier_metric(r1, r2, delta)
        assert all(type(x) is Fraction for x in ext.table.flat)


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_extension_refuses_tables_that_break_the_triangle_inequality(mode):
    # the closed form is the path metric only when both tables are
    # semimetrics; a path 0-2-1 shorter than d(0,1) must not pass
    labs = ["a", "b", "c"]
    bent = [[0, 10, 1], [10, 0, 1], [1, 1, 0]]
    good = [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
    if mode == "rational":
        # broken by the least amount exact arithmetic can see
        bent = [[Fraction(x) for x in row] for row in good]
        bent[0][1] = bent[1][0] = 2 + Fraction(1, 10**12)
    r_bent = semimetric_from_table(labs, bent, mode=mode, validate=False)
    r_good = semimetric_from_table(labs, good, mode=mode)
    for r1, r2, name in ((r_bent, r_good, r"rho \("), (r_good, r_bent, r"rho' \(")):
        dinf = dinf_closed_form(r1, r2)
        delta = DeltaVector(r1.taxa, [dinf] * 3, mode)
        assert quadrangle_feasible(r1, r2, delta)[0]
        with pytest.raises(TreegromovError, match="failed to restrict to " + name):
            realize_extension(r1, r2, delta)


def test_extension_tolerance_follows_both_tables_scales():
    # one table at 1e-3 and one at 1e6, in both orders: the audits are held
    # to 1e-9 of the larger scale, not of the first table's
    small = tree_to_semimetric(random_binary_tree(30, 17, "uniform01")).scaled(1e-3)
    large = tree_to_semimetric(random_binary_tree(30, 117, "uniform01")).scaled(1e6)
    # points on a line make every triangle tight; lengthening one cell by
    # 1e-5 breaks one by 1e-11 of the scale, which validation accepts
    line = np.random.default_rng(3).uniform(0, 1e6, 30)
    table = np.abs(line[:, None] - line[None, :])
    table[0, 1] = table[1, 0] = table[0, 1] + 1e-5
    bent = Semimetric(small.taxa, table)
    for big in (large, bent):
        for r1, r2 in ((small, big), (big, small)):
            dinf = dinf_closed_form(r1, r2)
            ext = realize_extension(r1, r2, DeltaVector(r1.taxa, [dinf] * 30))
            assert ext.restrict_left() == r1 and ext.restrict_right() == r2
            for lab in r1.taxa.labels:
                assert ext.matched_distance(lab) == pytest.approx(dinf, rel=1e-12)


def test_extension_diagonal_audit_catches_a_broken_difference_row(monkeypatch):
    # with the feasibility check bypassed, delta = (0, 10) on two points at
    # distance 1 breaks a difference row: the path b - a - a' - b' of
    # length 2 undercuts the matching edge b - b' of weight 10
    import treegromov.gromov as gromov_module

    monkeypatch.setattr(gromov_module, "quadrangle_feasible", lambda *args: (True, []))
    r = semimetric_from_table(["a", "b"], [[0, 1], [1, 0]])
    with pytest.raises(TreegromovError, match="failed to match delta at b"):
        realize_extension(r, r, DeltaVector(r.taxa, [0.0, 10.0]))


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


def _exact_twin(r):
    """r in rational mode, each float entry converted to a Fraction exactly."""
    table = [[Fraction(x) for x in row] for row in r.table.tolist()]
    return Semimetric(r.taxa, table, mode="rational", validate=False)


@pytest.mark.parametrize("n", [8, 40])
@pytest.mark.parametrize("variant", ["lower", "full"])
def test_weighted_d1_is_scale_equivariant(n, variant):
    # scaling by 2**k is exact in float64, so the weighted simplex must
    # return exactly 2**k times its value and argmin at scale 1, and that
    # value must be the exact optimum of the float data to 1e-15.  With an
    # absolute pricing threshold the n=40 pair returned 0.0 at 2**-40 and
    # 2**-60 with a zero duality gap (the optima are 1.72e-10 and 1.64e-16)
    r1, r2 = (tree_to_semimetric(random_binary_tree(n, s, "uniform01")) for s in (1, 101))
    rng = random.Random(5)
    w = [0.5 + 1.5 * rng.random() for _ in range(n)]
    spec = GromovSpec(norm=1, variant=variant, taxon_weights=w)
    base = gromov_distance(r1, r2, spec)
    assert base.method == "dual"
    exact = gromov_distance(
        _exact_twin(r1),
        _exact_twin(r2),
        GromovSpec(norm=1, variant=variant, taxon_weights=[Fraction(x) for x in w]),
    )
    assert abs(Fraction(base.value) - exact.value) <= Fraction(1e-15) * exact.value
    for k in (-60, -40, -20, 20, 40, 60):
        s = 2.0**k
        res = gromov_distance(r1.scaled(s), r2.scaled(s), spec)
        assert res.value == s * base.value, k
        assert (res.argmin.values == s * base.argmin.values).all(), k


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "2", None, 0])
def test_bad_taxon_weights_rejected_at_both_norms(bad):
    # nan once reached np.argmin on an empty array, and inf gave an
    # "optimal" norm-2 result with value nan
    for norm in (1, 2):
        with pytest.raises(ValidationError, match=r"weight 1 is"):
            GromovSpec(norm=norm, taxon_weights=(1, bad, 1, 1))


def test_rational_weighted_d1_is_exact():
    r1, r2 = _quartet_pair(mode="rational")
    w = (1, 2, 1, Fraction(3))
    res = gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=w))
    tables = [[[int(x) for x in row] for row in r.table] for r in (r1, r2)]
    rows, rhs = orc.assemble_dense_exact(*tables, "full")
    want, _ = orc.lp_vertex_oracle_exact([Fraction(x) for x in w], rows, rhs)
    assert isinstance(res.value, Fraction) and res.value == want
    with pytest.raises(ValidationError, match="rational mode does not accept float"):
        gromov_distance(r1, r2, GromovSpec(norm=1, taxon_weights=(1.0, 2.0, 1.0, 3.0)))


def test_norm2_rational_rejected():
    r1, r2 = _quartet_pair(mode="rational")
    with pytest.raises(ValidationError):
        _dist(r1, r2, 2)


def test_inf_lp_route_matches_closed_form():
    # the norm-inf epigraph LP, min t over the relabeling rows and
    # t - delta_x >= 0, solved by the oracles' LP solvers
    for seed in range(4):
        r1, r2 = _random_pair(6, seed + 1400, weight_model="uniform01")
        closed = gromov_distance(r1, r2, GromovSpec(norm="inf"))
        for variant in ("full", "lower"):
            A, b, _ = orc.assemble_dense(r1.table, r2.table, variant, epigraph=True)
            value, _ = orc.lp_primal_oracle([0] * 6 + [1], A, b)
            assert value == pytest.approx(closed.value, abs=1e-9)
    r1, r2 = _quartet_pair(mode="rational")
    closed = gromov_distance(r1, r2, GromovSpec(norm="inf"))
    tables = [[list(row) for row in r.table] for r in (r1, r2)]
    rows, rhs = orc.assemble_dense_exact(*tables, "full")
    rows = [r + [0] for r in rows] + [[-int(i == x) for i in range(4)] + [1] for x in range(4)]
    value, _ = orc.lp_vertex_oracle_exact([0] * 4 + [1], rows, rhs + [0] * 4)
    assert value == closed.value  # exact


def _d2_pair(seed, scale, n=30):
    return [
        tree_to_semimetric(random_binary_tree(n, seed=s, weight_model="uniform01")).scaled(scale)
        for s in (seed, seed + 100)
    ]


@pytest.mark.parametrize(
    "scale, seed",
    [(s, 1) for s in (1e3, 1e4, 1e5, 1e6)] + [(s, 2) for s in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8)],
)
def test_scaled_d2_certifies(scale, seed):
    # Branch lengths in these units once made the primal active-set QP hit
    # a singular working-set system (its step tests were absolute).  Every
    # case must now certify, with each KKT part judged relative to the
    # data scale s.
    r1, r2 = _d2_pair(seed, scale)
    res = gromov_distance(r1, r2, GromovSpec(norm=2))
    s = max(1.0, float(r1.table.max()), float(r2.table.max()))
    kkt = res.certificate["kkt"]
    for part in ("stationarity", "primal", "dual"):
        assert kkt[part] <= 1e-9 * s, (part, kkt[part])
    assert kkt["complementarity"] <= 1e-9 * s * s


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d2_raw_objective_is_homogeneous(seed):
    # the pair-row QP is homogeneous: scaling the tables by s scales the
    # optimum by s and the objective by s^2
    base = gromov_distance(*_d2_pair(seed, 1.0), GromovSpec(norm=2)).certificate["raw_objective"]
    assert base > 0
    for e in range(-6, 10):
        s = 10.0**e
        raw = gromov_distance(*_d2_pair(seed, s), GromovSpec(norm=2)).certificate["raw_objective"]
        assert raw == pytest.approx(s * s * base, rel=1e-9), s


def test_certificates_render():
    r1, r2 = _quartet_pair()
    res = gromov_distance(r1, r2, GromovSpec(norm=1))
    text = format_certificate(res, r1, r2)
    assert "optimal" in text
    assert "delta" in text
    res2 = gromov_distance(r1, r2, GromovSpec(norm=2))
    text2 = format_certificate(res2)
    assert "kkt" in text2.lower()


@pytest.mark.parametrize("seed, active", [(1, 5), (2, 3)])
def test_certificate_active_rows_scale_free(seed, active):
    # the active pair rows are the same set at every data scale; an
    # absolute slack tolerance listed all 15 rows at scale 1e-9
    base = [
        tree_to_semimetric(random_binary_tree(6, seed=s, weight_model="uniform01"))
        for s in (seed, seed + 100)
    ]
    listed = []
    for scale in (1.0, 1e-9, 1e6):
        r1, r2 = (r.scaled(scale) for r in base)
        text = format_certificate(gromov_distance(r1, r2, GromovSpec(norm=1)), r1, r2)
        rows = text.split("active pair rows")[1].split("\n")[1:]
        listed.append([row.split(":")[0] for row in rows if row.startswith("  (")])
    assert len(listed[0]) == active
    assert listed[1] == listed[0] and listed[2] == listed[0]


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


# ---------------------------------------------------------------------------
# the full variant, computed as one lower solve plus a difference-row
# audit; every reference below builds the difference rows itself, since a
# comparison with the lower variant would be circular


def _full_cases(n, seed):
    """(name, rho, rho') on n taxa: unit, uniform01 and scaled tree pairs
    and a pair of integer semimetric tables, all float."""
    labs = [f"t{i}" for i in range(n)]
    rng = np.random.default_rng(seed)
    tables = [orc.random_integer_semimetric(n, rng).astype(float) for _ in range(2)]
    scale = (1e-3, 10.0)[seed % 2]
    scaled = _random_pair(n, seed + 1, weight_model="uniform01")
    return [
        ("unit", *_random_pair(n, seed)),
        ("uniform01", *_random_pair(n, seed, weight_model="uniform01")),
        ("scaled", scaled[0].scaled(scale), scaled[1].scaled(scale)),
        ("integer", *(semimetric_from_table(labs, t) for t in tables)),
    ]


def _full_cases_rational(n, seed):
    """The rational twins of _full_cases: uniform01 trees are read back
    from their Newick text, so path sums are exact."""
    labs = [f"t{i}" for i in range(n)]
    rng = np.random.default_rng(seed)
    tables = [
        [[Fraction(int(v)) for v in row] for row in orc.random_integer_semimetric(n, rng)]
        for _ in range(2)
    ]
    u01 = [
        tree_to_semimetric(parse_newick(write_newick(
            random_binary_tree(n, seed=2 * seed + k, weight_model="uniform01")
        ), mode="rational"))
        for k in (0, 1)
    ]
    scale = (Fraction(1, 1000), Fraction(10))[seed % 2]
    unit = _random_pair(n, seed, mode="rational")
    return [
        ("unit", *unit),
        ("uniform01", *u01),
        ("scaled", unit[0].scaled(scale), unit[1].scaled(scale)),
        ("integer", *(semimetric_from_table(labs, t, mode="rational") for t in tables)),
    ]


def _dense_full(r1, r2, bounded):
    """Dense (A, b) of the full program, bound rows -delta_j >= -u last."""
    A, b, upper = orc.assemble_dense(r1.table, r2.table, "full", bounded)
    if bounded:
        A = np.vstack([A, -np.eye(len(upper))])
        b = np.concatenate([b, -np.asarray(upper)])
    return A, b


def _assert_certifies(res, r1, r2, weights, norm):
    """The certificate holds one entry per pair row (i < j, row-major) and
    proves the optimum of those rows: for norm 1, y >= 0, A^T y <= w and
    b.y = value; for norm 2, mu >= 0, A^T mu = 2 w delta and
    mu_k (A delta - b)_k = 0.  With the difference and bound rows met at
    delta (checked by the caller), zero entries on them extend it to a
    certificate for the full and bounded programs."""
    n = len(r1.taxa)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = [((i, j), abs(r1.table[i, j] - r2.table[i, j])) for i, j in pairs]
    y = list(res.certificate["dual" if norm == 1 else "multipliers"])
    assert len(y) == len(rows)
    dv = res.argmin.values
    back = [0] * n
    by = 0
    comp = []
    for (idx, rhs), yk in zip(rows, y):
        for j in idx:
            back[j] += yk
        by += yk * rhs
        comp.append(yk * (sum(dv[j] for j in idx) - rhs))
    if res.mode == "rational":
        assert all(yk >= 0 for yk in y)
        assert all(bj <= wj for bj, wj in zip(back, weights))
        assert by == res.value
        return
    scale = max(1.0, float(r1.table.max()), float(r2.table.max()))
    w = np.asarray(weights, dtype=float)
    if norm == 1:
        tol = 1e-9 * float(w.max())
        assert min(y) >= -tol
        assert (np.array(back) <= w + tol).all()
        assert by == pytest.approx(res.value, rel=1e-8, abs=1e-8 * scale)
    else:
        grad = 2.0 * w * dv
        gscale = max(1.0, float(np.abs(grad).max()))
        assert min(y) >= -1e-9 * gscale
        assert np.abs(grad - np.array(back)).max() <= 1e-8 * gscale
        assert max(abs(c) for c in comp) <= 1e-8 * gscale * scale


def _weights(n, weighted, seed):
    if not weighted:
        return None
    return tuple(np.random.default_rng(seed).uniform(0.5, 3.0, size=n))


# (bounded, weighted); each input meets two of them per n, all four over
# the n values
_FLAVORS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("n,seed", [(6, 3), (9, 4), (14, 5), (20, 6)])
def test_full_d1_float_matches_primal_oracle(n, seed):
    for k, (name, r1, r2) in enumerate(_full_cases(n, seed)):
        for bounded, weighted in (_FLAVORS[(k + seed) % 4], _FLAVORS[(k + seed + 2) % 4]):
            w = _weights(n, weighted, seed + k)
            spec = GromovSpec(norm=1, bounded=bounded, taxon_weights=w)
            res = gromov_distance(r1, r2, spec)
            weights = np.ones(n) if w is None else np.array(w)
            A, b = _dense_full(r1, r2, bounded)
            want, _ = orc.lp_primal_oracle(weights, A, b)
            scale = max(1.0, float(r1.table.max()), float(r2.table.max()))
            assert res.value == pytest.approx(want, rel=1e-9, abs=1e-9 * scale), (name, bounded, w)
            ok, violations = quadrangle_feasible(r1, r2, res.argmin)
            assert ok, (name, violations)
            _assert_certifies(res, r1, r2, weights, 1)


@pytest.mark.parametrize("n,seed", [(3, 7), (4, 8), (5, 9)])
def test_full_d1_rational_matches_exact_oracle(n, seed):
    cases = _full_cases_rational(n, seed)
    if n == 5:
        cases = cases[seed % 4 :][:1]  # an n=5 enumeration takes seconds
    for k, (name, r1, r2) in enumerate(cases):
        rows, rhs = orc.assemble_dense_exact(r1.table.tolist(), r2.table.tolist(), "full")
        for bounded, weighted in (_FLAVORS[(k + seed) % 4], _FLAVORS[(k + seed + 2) % 4]):
            w = None
            if weighted:
                w = tuple(Fraction(int(x), 2) for x in np.random.default_rng(seed + k).integers(1, 7, size=n))
            res = gromov_distance(r1, r2, GromovSpec(norm=1, bounded=bounded, taxon_weights=w))
            weights = [1] * n if w is None else list(w)
            upper = [2 * dinf_closed_form(r1, r2)] * n if bounded else None
            want, _ = orc.lp_vertex_oracle_exact(weights, rows, rhs, upper)
            assert isinstance(res.value, Fraction) and res.value == want, (name, bounded, w)
            ok, violations = quadrangle_feasible(r1, r2, res.argmin)
            assert ok, (name, violations)
            _assert_certifies(res, r1, r2, weights, 1)


@pytest.mark.parametrize("n,seed", [(3, 10), (4, 11), (5, 12)])
def test_full_d2_matches_face_oracle(n, seed):
    for k, (name, r1, r2) in enumerate(_full_cases(n, seed)):
        # bounded n=5 programs make the face enumeration too large to keep
        bounded = bool(k % 2) and n < 5
        w = _weights(n, k >= 2, seed + k)
        res = gromov_distance(r1, r2, GromovSpec(norm=2, bounded=bounded, taxon_weights=w))
        weights = np.ones(n) if w is None else np.array(w)
        if w is None:
            want = orc.gromov_oracle(r1.table, r2.table, 2, "full", bounded)
        else:
            A, b, upper = orc.assemble_dense(r1.table, r2.table, "full", bounded)
            raw, _ = orc.qp_face_oracle(weights, A, b, upper)
            want = math.sqrt(raw)
        scale = max(1.0, float(r1.table.max()), float(r2.table.max()))
        assert res.value == pytest.approx(want, rel=1e-8, abs=1e-8 * scale), (name, bounded, w)
        ok, violations = quadrangle_feasible(r1, r2, res.argmin)
        assert ok, (name, violations)
        _assert_certifies(res, r1, r2, weights, 2)


def test_full_variant_rejects_tables_that_break_the_triangle_inequality():
    # rho(a,c) = 5 > rho(a,b) + rho(b,c) = 2, yet the lower D1 optimum
    # (2, 0, 2) meets every difference row |delta_x - delta_y| <= rho + rho'
    # (2 on (a,b) and (b,c)), so it certifies the full D1 = 4.  With
    # rho(a,c) = 9, delta_b = 0 at every lower optimum and delta_a + delta_c
    # >= 8, so the difference row (a,b) or (b,c) breaks by at least 2.
    taxa = TaxonSet(["a", "b", "c"])
    for mode in ("float", "rational"):
        rho = Semimetric(taxa, [[0, 1, 5], [1, 0, 1], [5, 1, 0]], mode, validate=False)
        ones = Semimetric(taxa, [[0, 1, 1], [1, 0, 1], [1, 1, 0]], mode, validate=False)
        lower = gromov_distance(rho, ones, GromovSpec(norm=1, variant="lower"))
        full = gromov_distance(rho, ones, GromovSpec(norm=1))
        assert lower.value == full.value == 4
        assert list(full.argmin.values) == [2, 0, 2]
        assert quadrangle_feasible(rho, ones, full.argmin)[0]
        _assert_certifies(full, rho, ones, [1] * 3, 1)
        far = Semimetric(taxa, [[0, 1, 9], [1, 0, 1], [9, 1, 0]], mode, validate=False)
        assert gromov_distance(far, ones, GromovSpec(norm=1, variant="lower")).value == 8
        with pytest.raises(ValidationError, match=r"difference row \(a,b\) by 2.*triangle"):
            gromov_distance(far, ones, GromovSpec(norm=1))
